// google-benchmark micro-benchmarks for the substrates: serialization
// (including the CSC block codec every L2 demotion, overflow fill and
// promotion pays), the de-duplicating object stream, the distributed KV
// store's lock protocol, and place-group dispatch. These quantify the building blocks
// the engine-level numbers rest on.
#include <benchmark/benchmark.h>

#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "kvstore/kv_store.h"
#include "serialize/basic_writables.h"
#include "serialize/dedup.h"
#include "workloads/spmv.h"
#include "x10rt/place_group.h"

namespace m3r {
namespace {

using serialize::BytesWritable;
using serialize::DedupMode;
using serialize::DedupOutputStream;
using serialize::IntWritable;
using serialize::Text;

void BM_SerializeTextPairs(benchmark::State& state) {
  Text key("some-representative-word");
  IntWritable value(1);
  for (auto _ : state) {
    serialize::DataOutput out;
    key.Write(out);
    value.Write(out);
    benchmark::DoNotOptimize(out.buffer().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeTextPairs);

/// A 2000x2000 CSC block at density 0.01 (~40k non-zeros): the SpMV
/// block shape the cache tiers move.
const workloads::CscBlockWritable& SpmvBlock() {
  static const workloads::CscBlockWritable block = [] {
    constexpr int32_t kDim = 2000;
    std::mt19937_64 rng(7);
    std::bernoulli_distribution keep(0.01);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    std::vector<std::tuple<int32_t, int32_t, double>> triplets;
    for (int32_t c = 0; c < kDim; ++c) {
      for (int32_t r = 0; r < kDim; ++r) {
        if (keep(rng)) triplets.emplace_back(r, c, value(rng));
      }
    }
    return workloads::CscBlockWritable::FromTriplets(kDim, kDim, triplets);
  }();
  return block;
}

void BM_CscBlockEncode(benchmark::State& state) {
  const workloads::CscBlockWritable& block = SpmvBlock();
  for (auto _ : state) {
    serialize::DataOutput out;
    block.Write(out);
    benchmark::DoNotOptimize(out.buffer().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * block.nnz());
}
BENCHMARK(BM_CscBlockEncode);

void BM_CscBlockDecode(benchmark::State& state) {
  const workloads::CscBlockWritable& block = SpmvBlock();
  const std::string bytes = serialize::SerializeToString(block);
  for (auto _ : state) {
    serialize::DataInput in(bytes);
    workloads::CscBlockWritable decoded;
    decoded.ReadFields(in);
    benchmark::DoNotOptimize(decoded.values().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * block.nnz());
}
BENCHMARK(BM_CscBlockDecode);

void BM_CloneRoundTrip(benchmark::State& state) {
  BytesWritable value(std::string(static_cast<size_t>(state.range(0)), 'v'));
  for (auto _ : state) {
    auto clone = value.Clone();
    benchmark::DoNotOptimize(clone.get());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CloneRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DedupStreamRepeats(benchmark::State& state) {
  DedupMode mode = static_cast<DedupMode>(state.range(0));
  auto payload =
      std::make_shared<BytesWritable>(std::string(1024, 'p'));
  for (auto _ : state) {
    DedupOutputStream out(mode);
    for (int i = 0; i < 64; ++i) out.WriteObject(payload);
    benchmark::DoNotOptimize(out.buffer().size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(mode == DedupMode::kOff
                     ? "off"
                     : (mode == DedupMode::kFull ? "full" : "consecutive"));
}
BENCHMARK(BM_DedupStreamRepeats)->Arg(0)->Arg(1)->Arg(2);

void BM_KVStoreWriteReadBlock(benchmark::State& state) {
  kvstore::KVStore store(8);
  auto key = std::make_shared<IntWritable>(1);
  auto value = std::make_shared<Text>("value");
  int i = 0;
  for (auto _ : state) {
    std::string path = "/bench/f" + std::to_string(i++ % 64);
    kvstore::BlockInfo info{"0", 0, 0};
    auto writer = store.CreateWriter(path, info);
    writer->get()->Append(key, value);
    benchmark::DoNotOptimize(writer->get()->Close().ok());
    auto seq = store.CreateReader(path, info);
    benchmark::DoNotOptimize(seq->get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStoreWriteReadBlock);

void BM_KVStoreContendedMetadata(benchmark::State& state) {
  static kvstore::KVStore* store = new kvstore::KVStore(8);
  for (auto _ : state) {
    std::string path = "/hot/dir/child" +
                       std::to_string(state.thread_index() % 4);
    benchmark::DoNotOptimize(store->Mkdirs(path).ok());
    benchmark::DoNotOptimize(store->GetInfo(path).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStoreContendedMetadata)->Threads(1)->Threads(4)->Threads(8);

void BM_PlaceGroupDispatch(benchmark::State& state) {
  x10rt::PlaceGroup places(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    std::atomic<int> count{0};
    places.FinishForAll([&](int) { ++count; });
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaceGroupDispatch)->Arg(4)->Arg(20)->Arg(64);

}  // namespace
}  // namespace m3r

BENCHMARK_MAIN();

// Stress + protocol tests for the streaming shuffle (DESIGN.md §15):
// concurrent emit strands trigger early run flushes on their own threads
// while other strands append and spill runs into the same partitions,
// then concurrent barrier drains seal the residuals. The delivered record
// multiset must match the emission plan and a barrier exchange
// (flush_bytes = 0) run over the same plan, the merged drain must be
// globally sorted, overflow budgets must spill whole runs through the sink
// without losing a record, and recovery must discard exactly the dead
// places' pre-barrier runs.
//
// Meant to run under -DM3R_SANITIZE=thread as the data-race check for the
// emit-time flush path (see check-sanitize).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "api/class_registry.h"
#include "api/extensions.h"
#include "api/sequence_file.h"
#include "common/buffer_pool.h"
#include "common/executor.h"
#include "common/sort.h"
#include "dfs/local_fs.h"
#include "m3r/m3r_engine.h"
#include "m3r/shuffle.h"
#include "serialize/basic_writables.h"
#include "serialize/io.h"
#include "serialize/writable.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"

namespace m3r::engine {
namespace {

using serialize::LongWritable;
using serialize::SerializeToString;
using serialize::Text;
using serialize::WritablePtr;

constexpr int kPlaces = 4;
constexpr int kWorkers = 3;
constexpr int kPartitions = 8;
constexpr int kEmitsPerStrand = 300;

/// In-memory RunSpillSink; thread-safe (Write runs under partition locks on
/// several strands at once).
class MapSpillSink : public RunSpillSink {
 public:
  Status Write(const std::string& id, const std::string& bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    store_[id] = bytes;
    return Status::OK();
  }
  Status Read(const std::string& id, std::string* bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_.find(id);
    if (it == store_.end()) return Status::NotFound("no spilled run " + id);
    *bytes = it->second;
    return Status::OK();
  }
  size_t spilled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> store_;
};

ShuffleOptions PipelinedOptions(size_t flush_bytes) {
  ShuffleOptions opts;
  opts.num_partitions = kPartitions;
  opts.workers_per_place = kWorkers;
  opts.flush_bytes = flush_bytes;
  return opts;
}

/// One strand's deterministic emission plan (mix of local/remote
/// destinations, duplicate keys, cloned pairs).
int PlanPartition(int place, int lane, int j) {
  return (place + 3 * lane + j) % kPartitions;
}
WritablePtr PlanKey(int place, int lane, int j) {
  return std::make_shared<LongWritable>((place + lane + j) % 50);
}
WritablePtr PlanValue(int place, int lane, int j) {
  return std::make_shared<Text>("v" + std::to_string(place) + "." +
                                std::to_string(lane) + "." +
                                std::to_string(j));
}

void EmitStrand(ShuffleExchange* shuffle, int place, int lane) {
  for (int j = 0; j < kEmitsPerStrand; ++j) {
    bool immutable = (j % 7) != 0;
    shuffle->Emit(place, PlanPartition(place, lane, j),
                  PlanKey(place, lane, j), PlanValue(place, lane, j),
                  immutable, lane);
  }
}

/// The (key|value) multiset the whole plan sends to `partition`, computed
/// from the plan itself rather than from any exchange.
std::vector<std::string> ExpectedView(int partition) {
  std::vector<std::string> view;
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      for (int j = 0; j < kEmitsPerStrand; ++j) {
        if (PlanPartition(place, lane, j) != partition) continue;
        view.push_back(SerializeToString(*PlanKey(place, lane, j)) + "|" +
                       SerializeToString(*PlanValue(place, lane, j)));
      }
    }
  }
  std::sort(view.begin(), view.end());
  return view;
}

void RunPlan(ShuffleExchange* shuffle, bool concurrent) {
  if (concurrent) {
    std::vector<std::thread> strands;
    for (int place = 0; place < kPlaces; ++place) {
      for (int lane = 0; lane < kWorkers; ++lane) {
        strands.emplace_back(EmitStrand, shuffle, place, lane);
      }
    }
    for (auto& t : strands) t.join();
    Executor pool(4);
    std::vector<std::thread> deliverers;
    for (int place = 0; place < kPlaces; ++place) {
      deliverers.emplace_back(
          [shuffle, &pool, place] { shuffle->DeliverTo(place, &pool, kWorkers); });
    }
    for (auto& t : deliverers) t.join();
  } else {
    for (int place = 0; place < kPlaces; ++place) {
      for (int lane = 0; lane < kWorkers; ++lane) {
        EmitStrand(shuffle, place, lane);
      }
    }
    for (int place = 0; place < kPlaces; ++place) shuffle->DeliverTo(place);
  }
}

/// Canonical multiset of everything a partition delivered: local pairs plus
/// every sorted-run record, serialized the same way. Drains the runs.
std::vector<std::string> PipelinedView(ShuffleExchange* shuffle,
                                       int partition) {
  std::vector<std::string> view;
  for (const auto& [k, v] : shuffle->PartitionPairs(partition)) {
    view.push_back(SerializeToString(*k) + "|" + SerializeToString(*v));
  }
  std::vector<SortedRun> runs;
  EXPECT_TRUE(shuffle->CollectPartitionRuns(partition, &runs).ok());
  for (const SortedRun& run : runs) {
    serialize::DataInput in(std::string_view(run.bytes));
    uint64_t records = 0;
    while (!in.AtEnd()) {
      std::string_view k = in.ReadStringView();
      std::string_view v = in.ReadStringView();
      view.push_back(std::string(k) + "|" + std::string(v));
      ++records;
    }
    EXPECT_EQ(records, run.records);
  }
  std::sort(view.begin(), view.end());
  return view;
}

TEST(PipelinedShuffleTest, ConcurrentPipelineMatchesBarrierExchange) {
  // Tiny flush threshold: every strand seals many runs mid-emit, so the
  // emit / flush / append interleaving is exercised for real.
  ShuffleExchange pipelined(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  RunPlan(&pipelined, /*concurrent=*/true);
  ASSERT_TRUE(pipelined.status().ok());

  ShuffleExchange barrier(kPlaces, PipelinedOptions(/*flush_bytes=*/0));
  RunPlan(&barrier, /*concurrent=*/false);
  ASSERT_TRUE(barrier.status().ok());

  ShuffleExchange::Stats ps = pipelined.ComputeStats();
  ShuffleExchange::Stats bs = barrier.ComputeStats();
  EXPECT_GT(ps.runs_shipped, static_cast<uint64_t>(kPlaces * kWorkers));
  EXPECT_GT(ps.peak_resident_run_bytes, 0u);
  for (int p = 0; p < kPartitions; ++p) {
    const std::vector<std::string> expected = ExpectedView(p);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(PipelinedView(&pipelined, p), expected) << "partition " << p;
    EXPECT_EQ(PipelinedView(&barrier, p), expected) << "partition " << p;
  }
  EXPECT_EQ(ps.local_pairs, bs.local_pairs);
  EXPECT_EQ(ps.remote_pairs, bs.remote_pairs);
  EXPECT_EQ(ps.local_pairs + ps.remote_pairs,
            static_cast<uint64_t>(kPlaces) * kWorkers * kEmitsPerStrand);
}

TEST(PipelinedShuffleTest, ZeroFlushThresholdShipsEachLaneOnceAtTheBarrier) {
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(/*flush_bytes=*/0));
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      EmitStrand(&shuffle, place, lane);
    }
  }
  // Nothing ships before the barrier.
  EXPECT_EQ(shuffle.ComputeStats().runs_shipped, 0u);
  for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
  ASSERT_TRUE(shuffle.status().ok());

  // Every byte crossed at the barrier, so the sim's pre-barrier overlap
  // terms are zero and the charge is the paper's barrier exchange.
  uint64_t wire = 0;
  for (int src = 0; src < kPlaces; ++src) {
    for (int dst = 0; dst < kPlaces; ++dst) {
      EXPECT_EQ(shuffle.BarrierWireBytes(src, dst),
                shuffle.WireBytes(src, dst))
          << src << "->" << dst;
      wire += shuffle.WireBytes(src, dst);
    }
  }
  EXPECT_GT(wire, 0u);

  // One run per non-empty remote lane, counted from the plan.
  std::set<std::tuple<int, int, int>> remote_lanes;
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      for (int j = 0; j < kEmitsPerStrand; ++j) {
        int dst = shuffle.PlaceOfPartition(PlanPartition(place, lane, j));
        if (dst != place) remote_lanes.emplace(place, lane, dst);
      }
    }
  }
  ASSERT_FALSE(remote_lanes.empty());
  EXPECT_EQ(shuffle.ComputeStats().runs_shipped, remote_lanes.size());
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(PipelinedView(&shuffle, p), ExpectedView(p))
        << "partition " << p;
  }
}

TEST(PipelinedShuffleTest, RunsMergeIntoGlobalKeyOrderWithStableOrdinals) {
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  RunPlan(&shuffle, /*concurrent=*/false);
  ASSERT_TRUE(shuffle.status().ok());

  for (int p = 0; p < kPartitions; ++p) {
    std::vector<SortedRun> runs;
    ASSERT_TRUE(shuffle.CollectPartitionRuns(p, &runs).ok());
    ASSERT_FALSE(runs.empty());
    std::vector<serialize::DataInput> ins;
    ins.reserve(runs.size());
    uint64_t expected = 0;
    for (const SortedRun& run : runs) {
      EXPECT_GT(run.records, 0u);
      EXPECT_EQ(run.key_type, LongWritable().TypeName());
      ins.emplace_back(std::string_view(run.bytes));
      expected += run.records;
    }
    sortkit::RunMerger merger;
    for (size_t i = 0; i < ins.size(); ++i) {
      serialize::DataInput* in = &ins[i];
      merger.AddRun(
          [in](std::string_view* k, std::string_view* v) {
            if (in->AtEnd()) return false;
            *k = in->ReadStringView();
            *v = in->ReadStringView();
            return true;
          },
          RunOrdinal(runs[i].src_place, runs[i].worker_lane, runs[i].seq));
    }
    std::string prev;
    std::string_view k, v;
    uint64_t merged = 0;
    while (merger.Next(&k, &v)) {
      if (merged > 0) EXPECT_LE(prev, std::string(k));
      prev.assign(k.data(), k.size());
      ++merged;
    }
    EXPECT_EQ(merged, expected);
  }
}

TEST(PipelinedShuffleTest, OverBudgetPartitionsSpillWholeRunsAndReload) {
  MapSpillSink sink;
  ShuffleOptions opts = PipelinedOptions(/*flush_bytes=*/512);
  opts.partition_budget_bytes = 2048;  // far below the per-partition load
  opts.spill_sink = &sink;
  std::atomic<uint64_t> gauge{0};
  opts.resident_gauge = &gauge;
  ShuffleExchange pipelined(kPlaces, opts);
  RunPlan(&pipelined, /*concurrent=*/true);
  ASSERT_TRUE(pipelined.status().ok());

  ShuffleExchange::Stats ps = pipelined.ComputeStats();
  EXPECT_GT(ps.overflow_spills, 0u);
  EXPECT_GT(sink.spilled(), 0u);
  // The whole working set never fit the budget...
  EXPECT_GT(ps.max_partition_run_bytes, opts.partition_budget_bytes);
  // ...but no record was lost: the reloaded multiset still matches the
  // emission plan.
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(PipelinedView(&pipelined, p), ExpectedView(p))
        << "partition " << p;
  }
  // Every partition was drained, so the external gauge is settled.
  EXPECT_EQ(gauge.load(), 0u);
}

TEST(PipelinedShuffleTest, DropDeadPlacesDiscardsDeadSourcesRuns) {
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  // Pre-barrier emissions from every place, enough to ship runs.
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      EmitStrand(&shuffle, place, lane);
    }
  }
  ShuffleExchange::Stats before = shuffle.ComputeStats();
  ASSERT_GT(before.runs_shipped, 0u);

  const int dead = 1;
  ShuffleExchange::RecoveryStats rs =
      shuffle.DropDeadPlaces({dead}, {0, 2, 3});
  EXPECT_GT(rs.dropped_runs, 0);
  EXPECT_GT(rs.dropped_lanes, 0);

  // Survivors drain; the dead place delivers nothing.
  for (int place : {0, 2, 3}) shuffle.DeliverTo(place);
  ASSERT_TRUE(shuffle.status().ok());
  for (int p = 0; p < kPartitions; ++p) {
    std::vector<SortedRun> runs;
    ASSERT_TRUE(shuffle.CollectPartitionRuns(p, &runs).ok());
    for (const SortedRun& run : runs) {
      EXPECT_NE(run.src_place, dead) << "dead place's run survived";
    }
  }
}

TEST(PipelinedShuffleTest, EarlyFlushesRecycleWireBuffersThroughThePool) {
  BufferPool pool;
  ShuffleOptions opts = PipelinedOptions(/*flush_bytes=*/512);
  opts.workers_per_place = 1;
  opts.buffer_pool = &pool;
  ShuffleExchange shuffle(kPlaces, opts);
  // One strand, many flushes on the same lane: from the second flush on,
  // Acquire must be served from the buffers the earlier flushes released —
  // the per-run recycle contract.
  for (int j = 0; j < 2000; ++j) {
    shuffle.Emit(/*src_place=*/0, /*partition=*/1,
                 std::make_shared<LongWritable>(j),
                 std::make_shared<Text>("value-" + std::to_string(j)),
                 /*immutable=*/true, /*worker_lane=*/0);
  }
  EXPECT_GT(pool.reused(), 0u);
  EXPECT_GT(shuffle.ComputeStats().runs_shipped, 1u);
  for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
  ASSERT_TRUE(shuffle.status().ok());
}

/// The §6.3 broadcast idiom, without hash-combine: each input value object
/// is emitted once per partition under a key that lands in that partition.
/// With two partitions per place, every remote lane carries the object
/// twice in a row, so the second copy crosses as a de-dup back-reference.
class FanOutMapper : public api::mapred::Mapper, public api::ImmutableOutput {
 public:
  static constexpr const char* kClassName = "PipelinedShuffleFanOutMapper";
  void Configure(const api::JobConf& conf) override {
    partitions_ = conf.NumReduceTasks();
  }
  void Map(const WritablePtr& key, const WritablePtr& value,
           api::OutputCollector& output, api::Reporter&) override {
    const int64_t k = static_cast<const LongWritable&>(*key).Get();
    for (int p = 0; p < partitions_; ++p) {
      output.Collect(std::make_shared<LongWritable>(k * partitions_ + p),
                     value);
    }
  }

 private:
  int partitions_ = 1;
};

M3R_REGISTER_CLASS_AS(api::mapred::Mapper, FanOutMapper, FanOutMapper)

/// Runs the fan-out job on a fresh DFS and engine; returns each output
/// part file's records, in file order, as serialized key and value bytes
/// (the files' own bytes differ only in their per-writer sync markers).
std::map<std::string, std::string> RunFanOutJob(int64_t flush_bytes,
                                                int64_t* dedup_saved_bytes) {
  constexpr int kJobPartitions = 8;
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  EXPECT_TRUE(workloads::GenerateMicroInput(*fs, "/micro", 300, 128,
                                            kJobPartitions, 7, false)
                  .ok());
  M3REngineOptions opts;
  opts.cluster.num_nodes = 4;
  opts.cluster.slots_per_node = 2;
  M3REngine engine(fs, opts);
  api::JobConf job =
      workloads::MakeMicroJob("/micro", "/out", kJobPartitions, 0.0, 1);
  job.SetMapperClass(FanOutMapper::kClassName);
  job.SetInt(api::conf::kShuffleFlushBytes, flush_bytes);
  api::JobResult result = engine.Submit(job);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  *dedup_saved_bytes = result.metrics.at("dedup_saved_bytes");

  std::map<std::string, std::string> files;
  auto listing = fs->ListStatus("/out");
  EXPECT_TRUE(listing.ok());
  for (const auto& f : *listing) {
    if (f.path.find("part-") == std::string::npos) continue;
    auto records = api::ReadSequenceFile(*fs, f.path);
    EXPECT_TRUE(records.ok());
    for (const auto& [k, v] : *records) {
      files[f.path] += SerializeToString(*k) + SerializeToString(*v);
    }
  }
  return files;
}

TEST(PipelinedShuffleTest, BroadcastBackReferencesMatchBarrierOutput) {
  int64_t saved_on = 0, saved_off = 0;
  // Small runs: most back-references land in early, emit-time flushes.
  std::map<std::string, std::string> on = RunFanOutJob(2048, &saved_on);
  // The barrier exchange: each lane ships as one stream.
  std::map<std::string, std::string> off = RunFanOutJob(0, &saved_off);
  // Back-references crossed the pipelined runs' span decoder...
  EXPECT_GT(saved_on, 0);
  EXPECT_EQ(saved_on, saved_off);
  // ...and every output record matches the barrier exchange, in order.
  ASSERT_EQ(on.size(), 8u);
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace m3r::engine

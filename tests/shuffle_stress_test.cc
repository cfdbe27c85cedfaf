// Concurrency stress for ShuffleExchange: many worker strands per source
// place hammer Emit into lane-confined streams and the shared local
// partitions, then every destination decodes in parallel. The outcome —
// per-partition pair multisets, dedup stats, and per-(src,dst) wire bytes —
// must match a single-threaded run of the same emission plan, because lanes
// are strand-confined and therefore deterministic.
//
// Meant to run under -DM3R_SANITIZE=thread as the data-race check for the
// intra-place worker pool.
#include "m3r/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "serialize/basic_writables.h"
#include "serialize/io.h"
#include "serialize/writable.h"

namespace m3r::engine {
namespace {

using serialize::LongWritable;
using serialize::SerializeToString;
using serialize::Text;
using serialize::WritablePtr;

constexpr int kPlaces = 4;
constexpr int kWorkers = 4;
constexpr int kPartitions = 8;
constexpr int kEmitsPerStrand = 400;

ShuffleOptions StressOptions(serialize::DedupMode mode) {
  ShuffleOptions opts;
  opts.num_partitions = kPartitions;
  opts.dedup_mode = mode;
  opts.workers_per_place = kWorkers;
  return opts;
}

/// Replays one strand's deterministic emission plan. Every strand mixes
/// local and remote destinations, clones (immutable=false) every 7th pair,
/// and re-emits a per-strand broadcast value every 5th pair so kFull dedup
/// has repeats to catch.
void EmitStrand(ShuffleExchange* shuffle, int place, int lane) {
  WritablePtr broadcast =
      std::make_shared<Text>("broadcast-" + std::to_string(place) + "-" +
                             std::to_string(lane));
  for (int j = 0; j < kEmitsPerStrand; ++j) {
    int partition = (place + 3 * lane + j) % kPartitions;
    bool immutable = (j % 7) != 0;
    WritablePtr key = std::make_shared<LongWritable>(
        place * 1000000 + lane * 10000 + j);
    WritablePtr value =
        (j % 5 == 0)
            ? broadcast
            : WritablePtr(std::make_shared<Text>(
                  "v" + std::to_string(place) + "." + std::to_string(lane) +
                  "." + std::to_string(j)));
    shuffle->Emit(place, partition, key, value, immutable, lane);
  }
}

/// Canonical multiset view of everything a partition received: its local
/// pairs plus every record of its sorted runs. Drains the runs.
std::vector<std::string> PartitionView(ShuffleExchange* shuffle,
                                       int partition) {
  std::vector<std::string> view;
  for (const auto& [k, v] : shuffle->PartitionPairs(partition)) {
    view.push_back(SerializeToString(*k) + "|" + SerializeToString(*v));
  }
  std::vector<SortedRun> runs;
  EXPECT_TRUE(shuffle->CollectPartitionRuns(partition, &runs).ok());
  for (const SortedRun& run : runs) {
    serialize::DataInput in(std::string_view(run.bytes));
    while (!in.AtEnd()) {
      std::string_view k = in.ReadStringView();
      std::string_view v = in.ReadStringView();
      view.push_back(std::string(k) + "|" + std::string(v));
    }
  }
  std::sort(view.begin(), view.end());
  return view;
}

void RunStress(serialize::DedupMode mode, bool decode_with_executor) {
  // Concurrent run: one thread per (place, lane) strand, then concurrent
  // DeliverTo per destination place.
  ShuffleExchange concurrent(kPlaces, StressOptions(mode));
  {
    std::vector<std::thread> strands;
    for (int place = 0; place < kPlaces; ++place) {
      for (int lane = 0; lane < kWorkers; ++lane) {
        strands.emplace_back(EmitStrand, &concurrent, place, lane);
      }
    }
    for (auto& t : strands) t.join();
  }
  {
    Executor decode_pool(4);
    std::vector<std::thread> deliverers;
    for (int place = 0; place < kPlaces; ++place) {
      deliverers.emplace_back([&, place] {
        concurrent.DeliverTo(place,
                             decode_with_executor ? &decode_pool : nullptr,
                             kWorkers);
      });
    }
    for (auto& t : deliverers) t.join();
  }

  // Reference run: identical plan, strictly single-threaded.
  ShuffleExchange reference(kPlaces, StressOptions(mode));
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      EmitStrand(&reference, place, lane);
    }
  }
  for (int place = 0; place < kPlaces; ++place) {
    reference.DeliverTo(place);
  }

  // Pair counts and contents per partition match exactly.
  for (int p = 0; p < kPartitions; ++p) {
    const std::vector<std::string> expected = PartitionView(&reference, p);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(PartitionView(&concurrent, p), expected) << "partition " << p;
  }
  // Wire bytes per (src, dst) match exactly: each lane's stream had one
  // writer emitting in deterministic order.
  for (int src = 0; src < kPlaces; ++src) {
    for (int dst = 0; dst < kPlaces; ++dst) {
      EXPECT_EQ(concurrent.WireBytes(src, dst),
                reference.WireBytes(src, dst))
          << src << "->" << dst;
    }
  }
  // Aggregate stats match exactly.
  ShuffleExchange::Stats cs = concurrent.ComputeStats();
  ShuffleExchange::Stats rs = reference.ComputeStats();
  EXPECT_EQ(cs.local_pairs, rs.local_pairs);
  EXPECT_EQ(cs.remote_pairs, rs.remote_pairs);
  EXPECT_EQ(cs.aliased_pairs, rs.aliased_pairs);
  EXPECT_EQ(cs.cloned_pairs, rs.cloned_pairs);
  EXPECT_EQ(cs.deduped_objects, rs.deduped_objects);
  EXPECT_EQ(cs.dedup_saved_bytes, rs.dedup_saved_bytes);
  EXPECT_EQ(cs.total_wire_bytes, rs.total_wire_bytes);
  EXPECT_EQ(cs.local_pairs + cs.remote_pairs,
            static_cast<uint64_t>(kPlaces) * kWorkers * kEmitsPerStrand);
}

TEST(ShuffleStress, ConcurrentEmitAndDeliverMatchesSequential_DedupFull) {
  RunStress(serialize::DedupMode::kFull, /*decode_with_executor=*/true);
}

TEST(ShuffleStress, ConcurrentEmitAndDeliverMatchesSequential_DedupOff) {
  RunStress(serialize::DedupMode::kOff, /*decode_with_executor=*/true);
}

TEST(ShuffleStress,
     ConcurrentEmitAndDeliverMatchesSequential_DedupConsecutive) {
  RunStress(serialize::DedupMode::kConsecutive,
            /*decode_with_executor=*/false);
}

TEST(ShuffleStress, DedupStillFiresAcrossLaneConfinedStreams) {
  ShuffleExchange shuffle(kPlaces, StressOptions(serialize::DedupMode::kFull));
  std::vector<std::thread> strands;
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      strands.emplace_back(EmitStrand, &shuffle, place, lane);
    }
  }
  for (auto& t : strands) t.join();
  for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
  ShuffleExchange::Stats stats = shuffle.ComputeStats();
  // Each strand re-emits its broadcast value; repeats that go to the same
  // remote place stay in one stream and must dedup.
  EXPECT_GT(stats.deduped_objects, 0u);
  EXPECT_GT(stats.dedup_saved_bytes, 0u);
}

TEST(ShuffleStress, SingleWorkerMatchesLegacyLayout) {
  // workers_per_place=1 must behave exactly like the pre-lane shuffle: one
  // stream per (src, dst), same bytes regardless of options struct.
  ShuffleOptions opts;
  opts.num_partitions = kPartitions;
  opts.workers_per_place = 1;
  ShuffleExchange shuffle(kPlaces, opts);
  EXPECT_EQ(shuffle.workers_per_place(), 1);
  for (int j = 0; j < 100; ++j) {
    shuffle.Emit(0, j % kPartitions, std::make_shared<LongWritable>(j),
                 std::make_shared<Text>("x"), true);
  }
  for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
  uint64_t total = 0;
  for (int p = 0; p < kPartitions; ++p) {
    total += PartitionView(&shuffle, p).size();
  }
  EXPECT_EQ(total, 100u);
}

}  // namespace
}  // namespace m3r::engine

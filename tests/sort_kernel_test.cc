// Tier-1 tests for the sort/shuffle hot-path pieces: the prefix-cached
// sort kernel (common/sort.h), the map-side hash-combine collector
// (api/hash_combine.h), and the shuffle buffer pool (common/buffer_pool.h).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/class_registry.h"
#include "api/counters.h"
#include "api/hash_combine.h"
#include "api/task_runner.h"
#include "common/buffer_pool.h"
#include "common/executor.h"
#include "common/rng.h"
#include "common/sort.h"
#include "serialize/basic_writables.h"
#include "serialize/registry.h"
#include "serialize/writable.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

using api::WritablePtr;
using serialize::IntWritable;
using serialize::Text;

// ---------------------------------------------------------------------------
// Sort kernel

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  std::vector<std::string_view> v;
  v.reserve(keys.size());
  for (const std::string& k : keys) v.emplace_back(k);
  return v;
}

/// Reference: the permutation std::stable_sort produces under plain
/// lexicographic byte order. Exact permutation equality against this is
/// the stability check — equal keys must keep input order.
std::vector<uint32_t> ReferencePermutation(
    const std::vector<std::string>& keys) {
  std::vector<uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  return perm;
}

void ExpectMatchesReference(const std::vector<std::string>& keys,
                            const sortkit::SortOptions& options) {
  sortkit::SortStats stats;
  std::vector<uint32_t> perm =
      sortkit::StableSortPermutation(Views(keys), options, &stats);
  EXPECT_EQ(perm, ReferencePermutation(keys));
}

std::vector<std::string> RandomKeys(size_t n, uint64_t seed,
                                    size_t max_len = 24) {
  Rng rng(seed);
  std::vector<std::string> keys(n);
  for (std::string& k : keys) {
    size_t len = rng.NextBelow(max_len + 1);
    k.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      k.push_back(static_cast<char>(rng.NextBelow(256)));
    }
  }
  return keys;
}

TEST(SortKernelTest, RandomKeysMatchStableSort) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExpectMatchesReference(RandomKeys(2000, seed), {});
  }
}

TEST(SortKernelTest, DegenerateShapes) {
  ExpectMatchesReference({}, {});
  ExpectMatchesReference({"only"}, {});
  ExpectMatchesReference(std::vector<std::string>(500, "same"), {});
  std::vector<std::string> sorted = RandomKeys(1000, 7);
  std::sort(sorted.begin(), sorted.end());
  ExpectMatchesReference(sorted, {});
  std::reverse(sorted.begin(), sorted.end());
  ExpectMatchesReference(sorted, {});
}

TEST(SortKernelTest, SharedPrefixForcesTieBreaks) {
  // Every key shares the same first 8 bytes, so every prefix comparison
  // ties and the memcmp/length tie-break path decides everything.
  Rng rng(11);
  std::vector<std::string> keys(1500);
  for (std::string& k : keys) {
    k = "prefix!!";  // exactly 8 bytes
    size_t extra = rng.NextBelow(6);
    for (size_t i = 0; i < extra; ++i) {
      k.push_back(static_cast<char>('a' + rng.NextBelow(3)));
    }
  }
  ExpectMatchesReference(keys, {});
}

TEST(SortKernelTest, ShortKeysAroundPrefixBoundary) {
  // Lengths 0..9 straddle the 8-byte prefix; zero-padding must not make
  // "a" equal to "a\0".
  std::vector<std::string> keys;
  for (int rep = 0; rep < 50; ++rep) {
    for (size_t len = 0; len <= 9; ++len) {
      keys.emplace_back(len, static_cast<char>(rep % 3));
    }
  }
  ExpectMatchesReference(keys, {});
}

TEST(SortKernelTest, CustomComparatorFallback) {
  std::vector<std::string> keys = RandomKeys(1200, 13);
  sortkit::RawCompareFn reverse = [](std::string_view a, std::string_view b) {
    return a == b ? 0 : (a < b ? 1 : -1);  // descending
  };
  sortkit::SortOptions options;
  options.comparator = &reverse;
  sortkit::SortStats stats;
  std::vector<uint32_t> perm =
      sortkit::StableSortPermutation(Views(keys), options, &stats);
  EXPECT_FALSE(stats.used_prefix);

  std::vector<uint32_t> expected(keys.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] > keys[b]; });
  EXPECT_EQ(perm, expected);
}

TEST(SortKernelTest, ParallelPathMatchesSerial) {
  Executor executor(4);
  std::vector<std::string> keys = RandomKeys(20000, 17);
  sortkit::SortOptions parallel;
  parallel.executor = &executor;
  parallel.max_workers = 4;
  parallel.parallel_threshold = 0;  // force the parallel path
  sortkit::SortStats stats;
  std::vector<uint32_t> perm =
      sortkit::StableSortPermutation(Views(keys), parallel, &stats);
  EXPECT_GT(stats.parallel_runs, 1u);
  EXPECT_EQ(perm, ReferencePermutation(keys));
}

TEST(SortKernelTest, ParallelCustomComparatorMatchesSerial) {
  Executor executor(3);
  std::vector<std::string> keys = RandomKeys(8000, 19);
  sortkit::RawCompareFn cmp = [](std::string_view a, std::string_view b) {
    // Order by length, then bytes — plenty of ties.
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
  };
  sortkit::SortOptions serial;
  serial.comparator = &cmp;
  sortkit::SortOptions parallel = serial;
  parallel.executor = &executor;
  parallel.max_workers = 3;
  parallel.parallel_threshold = 0;
  EXPECT_EQ(sortkit::StableSortPermutation(Views(keys), parallel),
            sortkit::StableSortPermutation(Views(keys), serial));
}

TEST(SortKernelTest, SortPairsParallelMatchesSerial) {
  api::JobConf conf;
  std::vector<std::string> keys = RandomKeys(40000, 23, 12);
  auto make_pairs = [&] {
    std::vector<api::KeyedPair> pairs(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) pairs[i].key_bytes = keys[i];
    return pairs;
  };
  std::vector<api::KeyedPair> serial = make_pairs();
  api::SortPairs(conf, &serial);

  Executor executor(4);
  api::SortOptions options;
  options.executor = &executor;
  options.max_workers = 4;
  std::vector<api::KeyedPair> parallel = make_pairs();
  api::SortPairs(conf, &parallel, options);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].key_bytes, serial[i].key_bytes) << "at " << i;
  }
}

// ---------------------------------------------------------------------------
// Hash-combine collector

/// Downstream stand-in that behaves like the real sinks: counts
/// MAP_OUTPUT_RECORDS per pair it sees and remembers (word, count) pairs.
class RecordingCollector : public api::OutputCollector {
 public:
  explicit RecordingCollector(api::Reporter* reporter)
      : reporter_(reporter) {}
  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    pairs.emplace_back(key->ToString(),
                       dynamic_cast<const IntWritable&>(*value).Get());
    reporter_->IncrCounter(api::counters::kTaskGroup,
                           api::counters::kMapOutputRecords, 1);
  }

  std::vector<std::pair<std::string, int32_t>> pairs;

 private:
  api::Reporter* reporter_;
};

api::JobConf WordCountStyleConf() {
  api::JobConf conf;
  conf.SetCombinerClass(workloads::WordCountReducer::kClassName);
  conf.SetMapOutputKeyClass(Text::kTypeName);
  conf.SetMapOutputValueClass(IntWritable::kTypeName);
  return conf;
}

TEST(HashCombineTest, EligibilityRequiresCombinerTypesAndByteGrouping) {
  api::JobConf conf;
  EXPECT_FALSE(api::HashCombineCollector::Eligible(conf));  // no combiner
  conf = WordCountStyleConf();
  EXPECT_TRUE(api::HashCombineCollector::Eligible(conf));
  conf.SetGroupingComparatorClass("PairRowComparator");
  EXPECT_FALSE(api::HashCombineCollector::Eligible(conf));
}

TEST(HashCombineTest, AggregatesAndSettlesCounters) {
  api::JobConf conf = WordCountStyleConf();
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  RecordingCollector downstream(&reporter);
  api::HashCombineCollector collector(conf, &downstream, &reporter);

  const std::vector<std::string> words = {"the", "quick", "fox", "the",
                                          "the", "fox"};
  const int kReps = 40;
  auto one = std::make_shared<IntWritable>(1);
  for (int r = 0; r < kReps; ++r) {
    for (const std::string& w : words) {
      collector.Collect(std::make_shared<Text>(w), one);
    }
  }
  ASSERT_TRUE(collector.Flush().ok());

  // Downstream saw one pre-summed pair per distinct word.
  ASSERT_EQ(downstream.pairs.size(), 3u);
  std::map<std::string, int64_t> sums;
  for (const auto& [w, c] : downstream.pairs) sums[w] += c;
  EXPECT_EQ(sums["the"], 3 * kReps);
  EXPECT_EQ(sums["quick"], kReps);
  EXPECT_EQ(sums["fox"], 2 * kReps);

  // Counter semantics survive the wrapper: MAP_OUTPUT_RECORDS counts
  // mapper emissions, and the combiner's work is visible.
  const int64_t emissions = static_cast<int64_t>(words.size()) * kReps;
  EXPECT_EQ(counters.Get(api::counters::kTaskGroup,
                         api::counters::kMapOutputRecords),
            emissions);
  EXPECT_GT(counters.Get(api::counters::kTaskGroup,
                         api::counters::kCombineInputRecords),
            0);
  EXPECT_GT(counters.Get(api::counters::kTaskGroup,
                         api::counters::kCombineOutputRecords),
            0);
  // Every fold is counted: the records the folds removed are exactly the
  // emissions downstream never saw.
  EXPECT_EQ(counters.Get(api::counters::kTaskGroup,
                         api::counters::kCombineInputRecords) -
                counters.Get(api::counters::kTaskGroup,
                             api::counters::kCombineOutputRecords),
            emissions - static_cast<int64_t>(downstream.pairs.size()));
  EXPECT_EQ(collector.overflow_spills(), 0u);
}

TEST(HashCombineTest, BudgetOverflowDrainsAndStaysCorrect) {
  api::JobConf conf = WordCountStyleConf();
  // ~500 bytes of budget: a few dozen distinct keys overflow repeatedly.
  conf.SetDouble(api::conf::kMapHashCombineMemoryMb, 500.0 / (1 << 20));
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  RecordingCollector downstream(&reporter);
  api::HashCombineCollector collector(conf, &downstream, &reporter);

  Rng rng(29);
  std::map<std::string, int64_t> expected;
  const int kEmissions = 5000;
  for (int i = 0; i < kEmissions; ++i) {
    std::string w = "word" + std::to_string(rng.NextBelow(64));
    ++expected[w];
    collector.Collect(std::make_shared<Text>(w),
                      std::make_shared<IntWritable>(1));
  }
  ASSERT_TRUE(collector.Flush().ok());
  EXPECT_GE(collector.overflow_spills(), 1u);

  std::map<std::string, int64_t> sums;
  for (const auto& [w, c] : downstream.pairs) sums[w] += c;
  EXPECT_EQ(sums, expected);
  EXPECT_EQ(counters.Get(api::counters::kTaskGroup,
                         api::counters::kMapOutputRecords),
            kEmissions);
}

/// Downstream that also takes the bytes path, checking that every pair's
/// bytes are exactly its serialization.
class RecordingSink : public RecordingCollector,
                      public api::SerializedPairSink {
 public:
  using RecordingCollector::RecordingCollector;
  void CollectSerialized(const WritablePtr& key, const WritablePtr& value,
                         std::string_view key_bytes,
                         std::string_view value_bytes) override {
    EXPECT_EQ(key_bytes, serialize::SerializeToString(*key));
    EXPECT_EQ(value_bytes, serialize::SerializeToString(*value));
    ++serialized;
    Collect(key, value);
  }

  size_t serialized = 0;
};

int32_t SumValues(api::ValuesIterator& values) {
  int32_t sum = 0;
  while (values.HasNext()) {
    sum += dynamic_cast<const IntWritable&>(*values.Next()).Get();
  }
  return sum;
}

/// Sums like WordCount's reducer but appends ' to the key: every fold
/// re-keys, so the table must give up after its first fold.
class ReKeyingSumCombiner : public api::mapred::Reducer {
 public:
  static constexpr const char* kClassName = "ReKeyingSumCombiner";
  void Reduce(const WritablePtr& key, api::ValuesIterator& values,
              api::OutputCollector& output, api::Reporter&) override {
    const int32_t sum = SumValues(values);
    output.Collect(
        std::make_shared<Text>(dynamic_cast<const Text&>(*key).Get() + "'"),
        std::make_shared<IntWritable>(sum));
  }
};
M3R_REGISTER_CLASS_AS(api::mapred::Reducer, ReKeyingSumCombiner,
                      ReKeyingSumCombiner)

/// Splits each fold's sum over two pairs of the same key (a fan-out).
class FanOutSumCombiner : public api::mapred::Reducer {
 public:
  static constexpr const char* kClassName = "FanOutSumCombiner";
  void Reduce(const WritablePtr& key, api::ValuesIterator& values,
              api::OutputCollector& output, api::Reporter&) override {
    const int32_t sum = SumValues(values);
    output.Collect(key, std::make_shared<IntWritable>(sum / 2));
    output.Collect(key, std::make_shared<IntWritable>(sum - sum / 2));
  }
};
M3R_REGISTER_CLASS_AS(api::mapred::Reducer, FanOutSumCombiner,
                      FanOutSumCombiner)

int64_t TaskCount(const api::Counters& counters, const char* name) {
  return counters.Get(api::counters::kTaskGroup, name);
}

/// A non-conforming combiner (re-keying or fan-out) disables the table on
/// its first fold. Sums, MAP_OUTPUT_RECORDS and the combine-counter
/// identity must all survive, and later emits pass straight through.
void CheckNonConformingCombiner(const char* combiner, bool bytes_sink) {
  SCOPED_TRACE(combiner);
  api::JobConf conf = WordCountStyleConf();
  conf.SetCombinerClass(combiner);
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  RecordingSink downstream(&reporter);
  RecordingCollector plain(&reporter);
  RecordingCollector& seen =
      bytes_sink ? static_cast<RecordingCollector&>(downstream) : plain;
  api::HashCombineCollector collector(
      conf, bytes_sink ? static_cast<api::OutputCollector*>(&downstream)
                       : &plain,
      &reporter);

  std::map<std::string, int64_t> expected;
  int64_t emissions = 0;
  auto emit = [&](const std::string& w, int32_t v) {
    expected[w] += v;
    ++emissions;
    collector.Collect(std::make_shared<Text>(w),
                      std::make_shared<IntWritable>(v));
  };
  // A few cold keys, then one hot key until its first fold runs.
  for (int i = 0; i < 20; ++i) emit("cold" + std::to_string(i), i + 1);
  int hot = 0;
  while (collector.table_entries() != 0) {
    emit("hot", 3);
    ASSERT_LT(++hot, 100) << "the table never gave up";
  }
  EXPECT_EQ(hot, 16);  // kFoldThreshold values trigger the fold
  // Everything buffered went downstream with the disabling emit; later
  // emits pass straight through.
  const size_t drained = seen.pairs.size();
  EXPECT_GT(drained, 0u);
  for (int i = 0; i < 10; ++i) {
    emit("late" + std::to_string(i % 3), 2);
    EXPECT_EQ(seen.pairs.size(), drained + static_cast<size_t>(i) + 1);
    EXPECT_EQ(collector.table_entries(), 0u);
  }
  ASSERT_TRUE(collector.Flush().ok());

  std::map<std::string, int64_t> sums;
  for (const auto& [w, c] : seen.pairs) {
    std::string word = w;
    while (!word.empty() && word.back() == '\'') word.pop_back();
    sums[word] += c;
  }
  EXPECT_EQ(sums, expected);
  EXPECT_EQ(TaskCount(counters, api::counters::kMapOutputRecords),
            emissions);
  EXPECT_EQ(TaskCount(counters, api::counters::kCombineInputRecords), 16);
  // What a reducer would see is what the mapper emitted less what the
  // folds removed (MAP_OUTPUT_RECORDS here also carries downstream's
  // per-pair tally, so the identity is checked on the pair count).
  EXPECT_EQ(static_cast<int64_t>(seen.pairs.size()),
            emissions -
                TaskCount(counters, api::counters::kCombineInputRecords) +
                TaskCount(counters, api::counters::kCombineOutputRecords));
  if (bytes_sink) {
    EXPECT_EQ(downstream.serialized, seen.pairs.size());
  }
}

TEST(HashCombineTest, ReKeyingCombinerDisablesTableAndStaysCorrect) {
  CheckNonConformingCombiner(ReKeyingSumCombiner::kClassName, /*bytes_sink=*/false);
  CheckNonConformingCombiner(ReKeyingSumCombiner::kClassName, /*bytes_sink=*/true);
}

TEST(HashCombineTest, FanOutCombinerDisablesTableAndStaysCorrect) {
  CheckNonConformingCombiner(FanOutSumCombiner::kClassName, /*bytes_sink=*/false);
  CheckNonConformingCombiner(FanOutSumCombiner::kClassName, /*bytes_sink=*/true);
}

TEST(HashCombineTest, DisablingFoldPublishesTheDrainedGauge) {
  api::JobConf conf = WordCountStyleConf();
  conf.SetCombinerClass(ReKeyingSumCombiner::kClassName);
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  RecordingCollector downstream(&reporter);
  std::atomic<int64_t> gauge{0};
  api::HashCombineCollector collector(conf, &downstream, &reporter, &gauge);
  auto one = std::make_shared<IntWritable>(1);
  // Enough distinct keys that the stepped gauge has published.
  for (int i = 0; i < 3000; ++i) {
    collector.Collect(std::make_shared<Text>("w" + std::to_string(i)), one);
  }
  ASSERT_GT(gauge.load(), 0);
  // The hot key's first fold re-keys: the table disables and drains, and
  // the governor must see it empty straight away, not at Flush.
  auto hot = std::make_shared<Text>("hot");
  while (collector.table_entries() != 0) collector.Collect(hot, one);
  EXPECT_EQ(gauge.load(), 0);
  collector.Collect(hot, one);  // pass-through
  EXPECT_EQ(gauge.load(), 0);
  ASSERT_TRUE(collector.Flush().ok());
  EXPECT_EQ(gauge.load(), 0);
}

TEST(HashCombineTest, SharedGaugeTracksEachTableWithinOneStep) {
  constexpr int64_t kStep = api::HashCombineCollector::kGaugeStep;
  api::JobConf conf = WordCountStyleConf();
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  RecordingCollector down_a(&reporter);
  RecordingCollector down_b(&reporter);
  std::atomic<int64_t> gauge{0};
  auto within_step = [&](int64_t share, size_t table_bytes) {
    const int64_t gap = share - static_cast<int64_t>(table_bytes);
    return gap < kStep && gap > -kStep;
  };
  {
    api::HashCombineCollector a(conf, &down_a, &reporter, &gauge);
    api::HashCombineCollector b(conf, &down_b, &reporter, &gauge);
    auto one = std::make_shared<IntWritable>(1);
    // 2500 distinct keys per table, each emitted a few times.
    auto key = [](char table, int i) {
      return std::make_shared<Text>(std::string(1, table) +
                                    std::to_string(i % 2500));
    };
    for (int i = 0; i < 6000; ++i) {  // a alone: b's share is 0
      a.Collect(key('a', i), one);
      ASSERT_TRUE(within_step(gauge.load(), a.table_bytes())) << i;
    }
    const int64_t share_a = gauge.load();
    EXPECT_GT(share_a, 0);
    for (int i = 0; i < 6000; ++i) {  // b alone: a's share is fixed
      b.Collect(key('b', i), one);
      ASSERT_TRUE(within_step(gauge.load() - share_a, b.table_bytes())) << i;
    }
    const int64_t share_b = gauge.load() - share_a;
    EXPECT_GT(share_b, 0);
    ASSERT_TRUE(a.Flush().ok());
    EXPECT_EQ(gauge.load(), share_b);
    ASSERT_TRUE(b.Flush().ok());
    EXPECT_EQ(gauge.load(), 0);

    // An unflushed table withdraws its share on destruction.
    api::HashCombineCollector c(conf, &down_a, &reporter, &gauge);
    for (int i = 0; i < 3000; ++i) c.Collect(key('c', i), one);
    EXPECT_GT(gauge.load(), 0);
  }
  EXPECT_EQ(gauge.load(), 0);
}

// ---------------------------------------------------------------------------
// Buffer pool

TEST(BufferPoolTest, ReusesBuffersAndTracksHints) {
  BufferPool pool;
  std::string a = pool.Acquire("wire");
  EXPECT_EQ(pool.reused(), 0u);
  a.assign(10000, 'x');
  pool.Release("wire", std::move(a));
  EXPECT_EQ(pool.SizeHint("wire"), 10000u);

  std::string b = pool.Acquire("wire");
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 10000u);

  // The hint decays when later buffers come back smaller.
  pool.Release("wire", std::string(100, 'y'));
  EXPECT_LT(pool.SizeHint("wire"), 10000u);

  pool.ObserveCount("scratch", 12);
  pool.ObserveCount("scratch", 4);
  EXPECT_GT(pool.CountHint("scratch"), 4u);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool pool;
  std::vector<std::thread> threads;
  std::atomic<int> total{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &total, t] {
      for (int i = 0; i < 500; ++i) {
        std::string buf = pool.Acquire("shared");
        buf.append(static_cast<size_t>(t + 1) * 10, 'z');
        total.fetch_add(1, std::memory_order_relaxed);
        pool.Release("shared", std::move(buf));
        pool.ObserveCount("counts", static_cast<size_t>(i % 7));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(total.load(), 2000);
  EXPECT_EQ(pool.acquired(), 2000u);
  EXPECT_GT(pool.reused(), 0u);
}

// ---------------------------------------------------------------------------
// RunMerger (the k-way merge heap shared by the Hadoop spill/merge path and
// the pipelined shuffle)

using KvRun = std::vector<std::pair<std::string, std::string>>;

/// Feeds a pre-sorted in-memory run to the merger.
sortkit::RunCursor CursorOver(const KvRun& run, size_t* pos) {
  return [&run, pos](std::string_view* k, std::string_view* v) {
    if (*pos >= run.size()) return false;
    *k = run[*pos].first;
    *v = run[*pos].second;
    ++*pos;
    return true;
  };
}

/// Drains the merger into (key, value, ordinal) triples.
std::vector<std::tuple<std::string, std::string, uint64_t>> Drain(
    sortkit::RunMerger* merger) {
  std::vector<std::tuple<std::string, std::string, uint64_t>> out;
  std::string_view k, v;
  uint64_t ord = 0;
  while (merger->Next(&k, &v, &ord)) {
    out.emplace_back(std::string(k), std::string(v), ord);
  }
  return out;
}

TEST(RunMergerTest, MergesRandomRunsIntoGlobalSortedOrder) {
  Rng rng(7);
  std::vector<KvRun> runs(5);
  std::vector<std::pair<std::string, std::string>> all;
  for (size_t r = 0; r < runs.size(); ++r) {
    size_t n = 50 + rng.NextBelow(200);
    for (size_t i = 0; i < n; ++i) {
      // Narrow key space forces duplicates within and across runs.
      std::string key = "k" + std::to_string(rng.NextBelow(40));
      std::string value = std::to_string(r) + ":" + std::to_string(i);
      runs[r].emplace_back(key, value);
    }
    std::stable_sort(runs[r].begin(), runs[r].end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& kv : runs[r]) all.push_back(kv);
  }

  sortkit::RunMerger merger;
  std::vector<size_t> cursors(runs.size(), 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    merger.AddRun(CursorOver(runs[r], &cursors[r]), r);
  }
  auto merged = Drain(&merger);
  ASSERT_EQ(merged.size(), all.size());
  EXPECT_EQ(merger.records(), all.size());
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(std::get<0>(merged[i - 1]), std::get<0>(merged[i]));
  }
}

TEST(RunMergerTest, EqualKeysDrainInOrdinalOrderAndStayStableWithinRun) {
  // Every run contributes several records of the same key; the merge must
  // drain all of run 0's, then run 1's, ... and keep each run's own order.
  std::vector<KvRun> runs(3);
  for (size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 4; ++i) {
      runs[r].emplace_back("dup",
                           std::to_string(r) + ":" + std::to_string(i));
    }
  }
  sortkit::RunMerger merger;
  std::vector<size_t> cursors(runs.size(), 0);
  // Ordinals added out of order: insertion order must not matter.
  std::vector<size_t> order = {2, 0, 1};
  for (size_t r : order) {
    merger.AddRun(CursorOver(runs[r], &cursors[r]), r);
  }
  auto merged = Drain(&merger);
  ASSERT_EQ(merged.size(), 12u);
  std::vector<std::string> values;
  for (const auto& [k, v, ord] : merged) {
    EXPECT_EQ(k, "dup");
    values.push_back(v);
  }
  EXPECT_EQ(values,
            (std::vector<std::string>{"0:0", "0:1", "0:2", "0:3", "1:0",
                                      "1:1", "1:2", "1:3", "2:0", "2:1",
                                      "2:2", "2:3"}));
}

TEST(RunMergerTest, EmptyRunsAreHarmless) {
  KvRun empty;
  KvRun full = {{"a", "1"}, {"b", "2"}};
  sortkit::RunMerger merger;
  size_t p0 = 0, p1 = 0, p2 = 0;
  merger.AddRun(CursorOver(empty, &p0), 0);
  merger.AddRun(CursorOver(full, &p1), 1);
  merger.AddRun(CursorOver(empty, &p2), 2);
  auto merged = Drain(&merger);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(std::get<0>(merged[0]), "a");
  EXPECT_EQ(std::get<0>(merged[1]), "b");
  EXPECT_EQ(std::get<2>(merged[0]), 1u);

  sortkit::RunMerger none;
  std::string_view k, v;
  EXPECT_FALSE(none.Next(&k, &v));
  EXPECT_EQ(none.records(), 0u);
}

TEST(RunMergerTest, SingleRunPassesThroughVerbatim) {
  KvRun run;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    run.emplace_back("k" + std::to_string(rng.NextBelow(20)),
                     std::to_string(i));
  }
  std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  sortkit::RunMerger merger;
  size_t pos = 0;
  merger.AddRun(CursorOver(run, &pos), 42);
  auto merged = Drain(&merger);
  ASSERT_EQ(merged.size(), run.size());
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(std::get<0>(merged[i]), run[i].first);
    EXPECT_EQ(std::get<1>(merged[i]), run[i].second);
    EXPECT_EQ(std::get<2>(merged[i]), 42u);
  }
}

TEST(RunMergerTest, CustomComparatorOverridesByteOrder) {
  // Reverse byte order: the merge must follow the comparator, not the
  // prefix fast path.
  sortkit::RawCompareFn reverse = [](std::string_view a, std::string_view b) {
    return a < b ? 1 : (b < a ? -1 : 0);
  };
  KvRun r0 = {{"z", "r0"}, {"m", "r0"}, {"a", "r0"}};
  KvRun r1 = {{"z", "r1"}, {"b", "r1"}};
  sortkit::RunMerger merger(&reverse);
  size_t p0 = 0, p1 = 0;
  merger.AddRun(CursorOver(r0, &p0), 0);
  merger.AddRun(CursorOver(r1, &p1), 1);
  auto merged = Drain(&merger);
  std::vector<std::string> keys;
  for (const auto& [k, v, ord] : merged) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "z", "m", "b", "a"}));
  // Equal keys ("z") still drain in ordinal order.
  EXPECT_EQ(std::get<1>(merged[0]), "r0");
  EXPECT_EQ(std::get<1>(merged[1]), "r1");
}

TEST(RunMergerTest, LongSharedPrefixesBeyondPrefixWidthStillOrdered) {
  // Keys identical through the 8-byte prefix exercise the memcmp tail.
  KvRun r0 = {{"prefix-00-aaa", "0"}, {"prefix-00-ccc", "0"}};
  KvRun r1 = {{"prefix-00-bbb", "1"}, {"prefix-00-ddd", "1"}};
  sortkit::RunMerger merger;
  size_t p0 = 0, p1 = 0;
  merger.AddRun(CursorOver(r0, &p0), 0);
  merger.AddRun(CursorOver(r1, &p1), 1);
  auto merged = Drain(&merger);
  std::vector<std::string> keys;
  for (const auto& [k, v, ord] : merged) keys.push_back(k);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys.front(), "prefix-00-aaa");
  EXPECT_EQ(keys.back(), "prefix-00-ddd");
}

}  // namespace
}  // namespace m3r

// End-to-end equivalence: the same HMR jobs run on the Hadoop engine and
// the M3R engine and must produce identical output (the paper's central
// compatibility claim, verified in §6: "verified that they produced
// equivalent output in HDFS").
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/class_registry.h"
#include "api/extensions.h"
#include "api/sequence_file.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "workloads/matrix_gen.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

/// Small simulated cluster so tests are fast but still multi-node.
sim::ClusterSpec TestCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

/// Reads every part file under `dir` and returns sorted lines.
std::vector<std::string> ReadOutputLines(dfs::FileSystem& fs,
                                         const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory) continue;
    if (f.path.find("part-") == std::string::npos) continue;
    auto content = fs.ReadFile(f.path);
    EXPECT_TRUE(content.ok());
    std::string cur;
    for (char c : *content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(EngineEquivalence, WordCountSameOutputOnBothEngines) {
  auto hadoop_fs = dfs::MakeSimDfs(4, 16 * 1024);
  auto m3r_fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*hadoop_fs, "/in", 200 * 1024, 4, 99)
                  .ok());
  ASSERT_TRUE(workloads::GenerateText(*m3r_fs, "/in", 200 * 1024, 4, 99)
                  .ok());

  hadoop::HadoopEngine hadoop(hadoop_fs, {TestCluster(), 0});
  engine::M3REngine m3r(m3r_fs, {TestCluster()});

  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3,
                                                 /*immutable_output=*/true);
  api::JobResult hr = hadoop.Submit(job);
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  api::JobResult mr = m3r.Submit(job);
  ASSERT_TRUE(mr.ok()) << mr.status.ToString();

  auto hadoop_lines = ReadOutputLines(*hadoop_fs, "/out");
  auto m3r_lines = ReadOutputLines(*m3r_fs, "/out");
  ASSERT_FALSE(hadoop_lines.empty());
  EXPECT_EQ(hadoop_lines, m3r_lines);

  // Both engines wrote the job-success marker.
  EXPECT_TRUE(hadoop_fs->Exists("/out/_SUCCESS"));
  EXPECT_TRUE(m3r_fs->Exists("/out/_SUCCESS"));

  // System counters agree on the semantic counts.
  using api::counters::kMapInputRecords;
  using api::counters::kReduceOutputRecords;
  using api::counters::kTaskGroup;
  EXPECT_EQ(hr.counters.Get(kTaskGroup, kMapInputRecords),
            mr.counters.Get(kTaskGroup, kMapInputRecords));
  EXPECT_EQ(hr.counters.Get(kTaskGroup, kReduceOutputRecords),
            mr.counters.Get(kTaskGroup, kReduceOutputRecords));
}

TEST(EngineEquivalence, MapOnlyJobReportsTheSameFileSystemCounters) {
  // A job sees the same system counters on either engine (paper §5.3): a
  // map-only job reads and writes the same DFS bytes on both.
  auto hadoop_fs = dfs::MakeSimDfs(4, 16 * 1024);
  auto m3r_fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*hadoop_fs, "/in", 64 * 1024, 4, 11)
                  .ok());
  ASSERT_TRUE(workloads::GenerateText(*m3r_fs, "/in", 64 * 1024, 4, 11).ok());
  hadoop::HadoopEngine hadoop(hadoop_fs, {TestCluster(), 0});
  engine::M3REngine m3r(m3r_fs, {TestCluster()});

  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 0,
                                                 /*immutable_output=*/true);
  api::JobResult hr = hadoop.Submit(job);
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  api::JobResult mr = m3r.Submit(job);
  ASSERT_TRUE(mr.ok()) << mr.status.ToString();

  using api::counters::kFsGroup;
  for (const char* name :
       {api::counters::kHdfsBytesRead, api::counters::kHdfsBytesWritten}) {
    EXPECT_GT(hr.counters.Get(kFsGroup, name), 0) << name;
    EXPECT_EQ(hr.counters.Get(kFsGroup, name), mr.counters.Get(kFsGroup, name))
        << name;
  }
}

TEST(EngineEquivalence, MidMapCrashRecoveryMatchesHadoopOutput) {
  auto hadoop_fs = dfs::MakeSimDfs(4, 16 * 1024);
  auto m3r_fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*hadoop_fs, "/in", 200 * 1024, 4, 23)
                  .ok());
  ASSERT_TRUE(workloads::GenerateText(*m3r_fs, "/in", 200 * 1024, 4, 23)
                  .ok());

  hadoop::HadoopEngine hadoop(hadoop_fs, {TestCluster(), 0});
  engine::M3REngine m3r(m3r_fs, {TestCluster()});

  api::JobResult hr = hadoop.Submit(
      workloads::MakeWordCountJob("/in", "/out", 3, true));
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  auto truth = ReadOutputLines(*hadoop_fs, "/out");
  ASSERT_FALSE(truth.empty());

  // One mid-map place crash, recovered in-flight by the default replay
  // mode: the surviving places' output must still match Hadoop's exactly.
  api::JobConf one = workloads::MakeWordCountJob("/in", "/out", 3, true);
  one.Set(api::conf::kPlaceCrashAt, "2:1");
  api::JobResult mr = m3r.Submit(one);
  ASSERT_TRUE(mr.ok()) << mr.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*m3r_fs, "/out"));
  EXPECT_EQ(mr.metrics.at("place_crashes"), 1);
  using api::counters::kMapInputRecords;
  using api::counters::kTaskGroup;
  // Replayed tasks re-run their mapper, so the recovered run counts at
  // least every record once (replays re-count, they never drop).
  EXPECT_GE(mr.counters.Get(kTaskGroup, kMapInputRecords),
            hr.counters.Get(kTaskGroup, kMapInputRecords));

  // Two distinct places crash in one job; two survivors still converge to
  // Hadoop's bytes.
  api::JobConf two = workloads::MakeWordCountJob("/in", "/out-two", 3, true);
  two.Set(api::conf::kPlaceCrashAt, "0:2,3:1");
  api::JobResult m2 = m3r.Submit(two);
  ASSERT_TRUE(m2.ok()) << m2.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*m3r_fs, "/out-two"));
  EXPECT_EQ(m2.metrics.at("place_crashes"), 2);

  // A reduce-phase crash is past the recovery horizon: whole-job
  // retriable failure, then a clean resubmission matches Hadoop again.
  api::JobConf red = workloads::MakeWordCountJob("/in", "/out-red", 3, true);
  red.Set("m3r.fault.seed", "11");
  red.Set("m3r.fault.m3r.place.nth", "5");  // first reduce liveness check
  api::JobResult m3 = m3r.Submit(red);
  ASSERT_FALSE(m3.ok());
  EXPECT_TRUE(m3.status.IsUnavailable()) << m3.status.ToString();
  EXPECT_TRUE(m3.status.IsRetriable());
  api::JobResult m4 = m3r.Submit(
      workloads::MakeWordCountJob("/in", "/out-red", 3, true));
  ASSERT_TRUE(m4.ok()) << m4.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*m3r_fs, "/out-red"));
}

TEST(EngineEquivalence, ReuseAndImmutableMappersAgree) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 100 * 1024, 2, 7).ok());
  engine::M3REngine m3r(fs, {TestCluster()});

  api::JobResult r1 = m3r.Submit(
      workloads::MakeWordCountJob("/in", "/out-reuse", 2, false));
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  api::JobResult r2 = m3r.Submit(
      workloads::MakeWordCountJob("/in", "/out-immutable", 2, true));
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();

  EXPECT_EQ(ReadOutputLines(*fs, "/out-reuse"),
            ReadOutputLines(*fs, "/out-immutable"));

  // The reuse variant must have been cloned by M3R; the immutable variant
  // shuffles at least some aliases locally.
  EXPECT_GT(r1.metrics.at("cloned_pairs"), 0);
  EXPECT_GT(r2.metrics.at("aliased_pairs"), 0);
}

TEST(EngineEquivalence, SecondJobServedFromCache) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 60 * 1024, 2, 3).ok());
  engine::M3REngine m3r(fs, {TestCluster()});

  api::JobResult r1 =
      m3r.Submit(workloads::MakeWordCountJob("/in", "/o1", 2, true));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.metrics.at("cache_hit_splits"), 0);
  EXPECT_GT(r1.metrics.at("cache_miss_splits"), 0);

  api::JobResult r2 =
      m3r.Submit(workloads::MakeWordCountJob("/in", "/o2", 2, true));
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2.metrics.at("cache_hit_splits"), 0);
  EXPECT_EQ(r2.metrics.at("cache_miss_splits"), 0);
  EXPECT_EQ(ReadOutputLines(*fs, "/o1"), ReadOutputLines(*fs, "/o2"));
}

TEST(EngineEquivalence, MicroBenchmarkBinaryOutputsIdentical) {
  // Sequence-file (binary) outputs of the shuffle micro-benchmark must be
  // record-identical across engines, for a ratio that mixes local and
  // remote pairs.
  auto run = [](bool use_m3r) {
    auto fs = dfs::MakeSimDfs(4, 64 * 1024);
    M3R_CHECK_OK(
        workloads::GenerateMicroInput(*fs, "/in", 600, 64, 6, 4, false));
    std::unique_ptr<api::Engine> engine;
    sim::ClusterSpec spec = TestCluster();
    if (use_m3r) {
      engine = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{spec});
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0});
    }
    auto result =
        engine->Submit(workloads::MakeMicroJob("/in", "/out", 6, 0.5, 7));
    M3R_CHECK(result.ok()) << result.status.ToString();
    // Canonical rendering: sorted "key=value" strings across all parts.
    std::vector<std::string> records;
    auto files = fs->ListStatus("/out");
    M3R_CHECK(files.ok());
    for (const auto& f : *files) {
      if (f.is_directory || f.length == 0) continue;
      if (f.path.find("part-") == std::string::npos) continue;
      auto pairs = api::ReadSequenceFile(*fs, f.path);
      M3R_CHECK(pairs.ok());
      for (const auto& [k, v] : *pairs) {
        records.push_back(k->ToString() + "=" + v->ToString());
      }
    }
    std::sort(records.begin(), records.end());
    return records;
  };
  auto hadoop_records = run(false);
  auto m3r_records = run(true);
  ASSERT_EQ(hadoop_records.size(), 600u);
  EXPECT_EQ(hadoop_records, m3r_records);
}

// --- Streaming shuffle: the WordCount/SpMV equivalence matrix must hold
// both for the barrier exchange (m3r.shuffle.flush.bytes=0, nothing ships
// before the barrier) and with runs streaming mid-map (DESIGN.md §15) ---

TEST(PipelineEquivalence, WordCountMatrixUnderBothShuffleModes) {
  auto hadoop_fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*hadoop_fs, "/in", 200 * 1024, 4, 99)
                  .ok());
  hadoop::HadoopEngine hadoop(hadoop_fs, {TestCluster(), 0});
  api::JobResult hr = hadoop.Submit(
      workloads::MakeWordCountJob("/in", "/out", 3, true));
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  auto truth = ReadOutputLines(*hadoop_fs, "/out");
  ASSERT_FALSE(truth.empty());

  // "0" is the barrier exchange; "4096" is small enough that lanes stream
  // several runs mid-map at this scale.
  for (const char* flush_bytes : {"0", "4096"}) {
    auto fs = dfs::MakeSimDfs(4, 16 * 1024);
    ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 200 * 1024, 4, 99).ok());
    engine::M3REngine m3r(fs, {TestCluster()});
    api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
    job.Set(api::conf::kShuffleFlushBytes, flush_bytes);
    api::JobResult mr = m3r.Submit(job);
    ASSERT_TRUE(mr.ok()) << flush_bytes << ": " << mr.status.ToString();
    EXPECT_EQ(truth, ReadOutputLines(*fs, "/out"))
        << "flush.bytes=" << flush_bytes;
    // Both modes report first-reduce latency; the ordering between them is
    // a perf property claimed by the fig6_smoke and fig8_smoke rows of
    // bench/m3r_experiments on configs sized to show it — at this scale
    // the two are within wall-clock measurement noise.
    ASSERT_EQ(mr.metrics.count("time_to_first_reduce_ms"), 1u) << flush_bytes;
    EXPECT_GT(mr.metrics.at("time_to_first_reduce_ms"), 0) << flush_bytes;
    // The barrier exchange ships each non-empty lane as one run at the
    // barrier; streaming ships more. Both count them.
    EXPECT_GT(mr.metrics.at("shuffle_runs_shipped"), 0) << flush_bytes;
    EXPECT_GT(mr.counters.Get(api::counters::kM3rGroup,
                              api::counters::kShuffleRunsShipped),
              0)
        << flush_bytes;
  }
}

TEST(PipelineEquivalence, SpmvMatrixUnderBothShuffleModes) {
  workloads::SpmvDataParams params;
  params.n = 400;
  params.block = 100;
  params.sparsity = 0.05;
  params.num_partitions = 2;

  // flush_bytes: nullptr keeps the default threshold; "0" is the barrier
  // exchange.
  auto run = [&](bool use_m3r,
                 const char* flush_bytes) -> std::vector<double> {
    auto fs = dfs::MakeSimDfs(4, 256 * 1024);
    M3R_CHECK_OK(workloads::GenerateSpmvData(*fs, "/spmv/g", "/spmv/v",
                                             params));
    std::unique_ptr<api::Engine> engine;
    std::shared_ptr<dfs::FileSystem> read_fs = fs;
    sim::ClusterSpec spec = TestCluster();
    if (use_m3r) {
      auto m3r = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{spec});
      read_fs = m3r->Fs();
      engine = std::move(m3r);
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0});
    }
    auto jobs = workloads::MakeSpmvIterationJobs("/spmv/g", "/spmv/v",
                                                 "/spmv/temp-p",
                                                 "/spmv/temp-out", 2, 4);
    for (api::JobConf job : jobs) {
      if (flush_bytes != nullptr) {
        job.Set(api::conf::kShuffleFlushBytes, flush_bytes);
      }
      auto result = engine->Submit(job);
      M3R_CHECK(result.ok()) << result.status.ToString();
    }
    auto v = workloads::ReadDenseVector(*read_fs, "/spmv/temp-out", params.n,
                                        params.block);
    M3R_CHECK(v.ok()) << v.status().ToString();
    return v.take();
  };

  std::vector<double> truth = run(/*use_m3r=*/false, "0");
  // Bit-identical doubles across the whole matrix: engine x flush
  // threshold (the Hadoop engine ignores the M3R knob).
  EXPECT_EQ(run(false, nullptr), truth);
  EXPECT_EQ(run(true, "0"), truth);
  EXPECT_EQ(run(true, nullptr), truth);
}

TEST(PipelineEquivalence, OverflowBudgetSpillsAndStaysByteIdentical) {
  // A partition budget far below the working set: the pipelined run set
  // cannot stay resident, so whole runs overflow through the checkpoint
  // spill path and are merged back lazily at reduce — with the same bytes
  // out as the unconstrained barrier exchange, which had to hold
  // everything. flush_bytes: nullptr keeps the default threshold.
  auto run = [](const char* flush_bytes, const char* budget_mb,
                api::JobResult* result_out) {
    auto fs = dfs::MakeSimDfs(4, 64 * 1024);
    M3R_CHECK_OK(
        workloads::GenerateMicroInput(*fs, "/in", 8000, 1024, 4, 4, false));
    engine::M3REngine m3r(fs, {TestCluster()});
    api::JobConf job = workloads::MakeMicroJob("/in", "/out", 4,
                                               /*remote_ratio=*/1.0, 7);
    if (flush_bytes != nullptr) {
      job.Set(api::conf::kShuffleFlushBytes, flush_bytes);
    }
    if (budget_mb != nullptr) {
      job.Set(api::conf::kShufflePartitionBudgetMb, budget_mb);
    }
    *result_out = m3r.Submit(job);
    M3R_CHECK(result_out->ok()) << result_out->status.ToString();
    std::vector<std::string> records;
    auto files = fs->ListStatus("/out");
    M3R_CHECK(files.ok());
    for (const auto& f : *files) {
      if (f.is_directory || f.length == 0) continue;
      if (f.path.find("part-") == std::string::npos) continue;
      auto pairs = api::ReadSequenceFile(*fs, f.path);
      M3R_CHECK(pairs.ok());
      for (const auto& [k, v] : *pairs) {
        records.push_back(k->ToString() + "=" + v->ToString());
      }
    }
    std::sort(records.begin(), records.end());
    return records;
  };

  api::JobResult barrier, constrained;
  auto truth = run("0", nullptr, &barrier);
  ASSERT_EQ(truth.size(), 8000u);
  auto spilled = run(nullptr, "1", &constrained);
  EXPECT_EQ(spilled, truth);
  // The budget actually bit: runs spilled, the cumulative partition
  // footprint exceeded what the budget would let stay resident, yet the
  // peak resident bytes honored it.
  EXPECT_GT(constrained.metrics.at("shuffle_overflow_spills"), 0);
  EXPECT_GT(constrained.metrics.at("shuffle_max_partition_run_bytes"),
            int64_t{1} << 20);
  EXPECT_GT(constrained.counters.Get(api::counters::kM3rGroup,
                                     api::counters::kShuffleOverflowSpills),
            0);
}

/// Folds the micro job's ascending keys onto eight duplicates per
/// partition, all owned by the next place: key k of input file k mod 4
/// becomes 4 * ((k / 4) mod 8) + (k + 1) mod 4, so every record crosses the
/// wire and each key repeats with distinct values, in emission order.
class DuplicateKeyMapper : public api::mapred::Mapper,
                           public api::ImmutableOutput {
 public:
  static constexpr const char* kClassName = "DuplicateKeyMapper";
  void Map(const api::WritablePtr& key, const api::WritablePtr& value,
           api::OutputCollector& output, api::Reporter&) override {
    const int64_t k = static_cast<const serialize::LongWritable&>(*key).Get();
    output.Collect(std::make_shared<serialize::LongWritable>(
                       4 * ((k / 4) % 8) + (k + 1) % 4),
                   value);
  }
};
M3R_REGISTER_CLASS_AS(api::mapred::Mapper, DuplicateKeyMapper,
                      DuplicateKeyMapper)

TEST(PipelineEquivalence, EqualKeysKeepTheirOrderAcrossSpilledRuns) {
  // Each partition is fed by one lane (one place, one strand) that ships
  // dozens of 4 KiB runs of the same eight keys. Under a 1 MiB budget the
  // oldest runs spill while later ones stay resident, so the reduce-time
  // merge interleaves reloaded and resident runs of one lane; equal keys
  // must still come out in emission order, which only the runs' ordinals
  // decide. Output records, in file order, must equal the barrier
  // exchange's and the Hadoop engine's.
  auto run = [](bool use_m3r, const char* flush_bytes, const char* budget_mb,
                api::JobResult* result) {
    auto fs = dfs::MakeSimDfs(4, 64 * 1024);
    M3R_CHECK_OK(
        workloads::GenerateMicroInput(*fs, "/in", 6000, 1024, 4, 3, false));
    api::JobConf job = workloads::MakeMicroJob("/in", "/out", 4, 0.0, 1);
    job.SetMapperClass(DuplicateKeyMapper::kClassName);
    // One strand per place. With two, strand s runs every other task of
    // its place and M3R orders equal keys by lane, while Hadoop orders
    // them by map task index, so the Hadoop comparison would not hold.
    job.Set(api::conf::kPlaceWorkers, "1");
    job.Set(api::conf::kShuffleFlushBytes, flush_bytes);
    if (budget_mb != nullptr) {
      job.Set(api::conf::kShufflePartitionBudgetMb, budget_mb);
    }
    std::unique_ptr<api::Engine> engine;
    if (use_m3r) {
      engine = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{TestCluster()});
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{TestCluster(), 0});
    }
    *result = engine->Submit(job);
    M3R_CHECK(result->ok()) << result->status.ToString();
    std::vector<std::string> records;
    for (int p = 0; p < 4; ++p) {
      auto pairs = api::ReadSequenceFile(
          *fs, "/out/" + api::file_output::PartFileName(p));
      M3R_CHECK(pairs.ok()) << pairs.status().ToString();
      for (const auto& [k, v] : *pairs) {
        records.push_back(serialize::SerializeToString(*k) +
                          serialize::SerializeToString(*v));
      }
    }
    return records;
  };

  api::JobResult barrier, spilled, hadoop_result;
  const auto truth = run(true, "0", nullptr, &barrier);
  ASSERT_EQ(truth.size(), 6000u);
  EXPECT_EQ(barrier.metrics.at("shuffle_overflow_spills"), 0);
  EXPECT_EQ(run(true, "4096", "1", &spilled), truth);
  EXPECT_EQ(run(false, "4096", "1", &hadoop_result), truth);

  // Every record crossed the wire, in many runs per lane (one lane per
  // partition: at least twelve runs each), and the budget spilled some.
  EXPECT_EQ(spilled.metrics.at("shuffle_local_pairs"), 0);
  EXPECT_GE(spilled.metrics.at("shuffle_runs_shipped"), 4 * 12);
  EXPECT_GT(spilled.metrics.at("shuffle_overflow_spills"), 0);
  EXPECT_GT(spilled.metrics.at("shuffle_max_partition_run_bytes"),
            int64_t{1} << 20);
}

// --- Integrity repair mode: corruption at any boundary, same bytes out ---

/// Outcome of running WordCount twice (same input, two output dirs) on one
/// engine. The second job exercises the M3R cache-serve boundary, which
/// only fires on cache hits.
struct TwoJobRun {
  bool ok = true;
  std::string error;
  std::vector<std::string> out1;
  std::vector<std::string> out2;
  int64_t detected = 0;
  int64_t repaired = 0;
};

TwoJobRun RunWordCountTwice(bool use_m3r,
                            const std::map<std::string, std::string>& extra) {
  TwoJobRun r;
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 80 * 1024, 3, 21));
  std::unique_ptr<api::Engine> engine;
  sim::ClusterSpec spec = TestCluster();
  if (use_m3r) {
    engine = std::make_unique<engine::M3REngine>(
        fs, engine::M3REngineOptions{spec});
  } else {
    engine = std::make_unique<hadoop::HadoopEngine>(
        fs, hadoop::HadoopEngineOptions{spec, 0});
  }
  for (const char* out : {"/out1", "/out2"}) {
    api::JobConf job = workloads::MakeWordCountJob("/in", out, 3, true);
    for (const auto& [k, v] : extra) job.Set(k, v);
    auto result = engine->Submit(job);
    if (!result.ok()) {
      r.ok = false;
      r.error = result.status.ToString();
      return r;
    }
    if (result.metrics.count("integrity_detected")) {
      r.detected += result.metrics.at("integrity_detected");
      r.repaired += result.metrics.at("integrity_repaired");
    }
  }
  r.out1 = ReadOutputLines(*fs, "/out1");
  r.out2 = ReadOutputLines(*fs, "/out2");
  return r;
}

struct CorruptionSiteCase {
  const char* name;
  const char* site;
  /// Which engines evaluate the site (the other runs corruption-free and
  /// must trivially match).
  bool fires_on_hadoop;
  bool fires_on_m3r;
};

// Without this, gtest prints the raw pointer bytes, so the listed test name
// would change with every address-space layout.
void PrintTo(const CorruptionSiteCase& c, std::ostream* os) { *os << c.site; }

class RepairEquivalenceTest
    : public ::testing::TestWithParam<CorruptionSiteCase> {};

TEST_P(RepairEquivalenceTest, SingleCorruptionRepairedByteIdentically) {
  const CorruptionSiteCase& c = GetParam();
  // prob=1.0 + limit=1: exactly one seeded bit flip per engine run, at the
  // first evaluation of the site. A single flip always leaves a surviving
  // copy (another replica / the sender's buffer / the file under the
  // cache), so repair mode must recover exactly.
  std::map<std::string, std::string> corrupt = {
      {api::conf::kIntegrityMode, "repair"},
      {"m3r.fault.seed", "9"},
      {std::string("m3r.fault.") + c.site + ".prob", "1.0"},
      {std::string("m3r.fault.") + c.site + ".limit", "1"},
  };
  TwoJobRun clean_h = RunWordCountTwice(false, {});
  TwoJobRun clean_m = RunWordCountTwice(true, {});
  ASSERT_TRUE(clean_h.ok) << clean_h.error;
  ASSERT_TRUE(clean_m.ok) << clean_m.error;
  ASSERT_FALSE(clean_h.out1.empty());
  ASSERT_EQ(clean_h.out1, clean_m.out1);  // baseline equivalence

  TwoJobRun faulty_h = RunWordCountTwice(false, corrupt);
  TwoJobRun faulty_m = RunWordCountTwice(true, corrupt);
  ASSERT_TRUE(faulty_h.ok) << c.site << ": " << faulty_h.error;
  ASSERT_TRUE(faulty_m.ok) << c.site << ": " << faulty_m.error;

  // Byte-identical to the clean run on both engines, both jobs.
  EXPECT_EQ(faulty_h.out1, clean_h.out1);
  EXPECT_EQ(faulty_h.out2, clean_h.out2);
  EXPECT_EQ(faulty_m.out1, clean_m.out1);
  EXPECT_EQ(faulty_m.out2, clean_m.out2);

  // The corruption actually happened and was actually healed on every
  // engine that has the boundary. (The injector is per-submission, so the
  // limit=1 flip can fire once in each of the two jobs.)
  if (c.fires_on_hadoop) {
    EXPECT_GE(faulty_h.detected, 1) << c.site;
    EXPECT_EQ(faulty_h.repaired, faulty_h.detected) << c.site;
  } else {
    EXPECT_EQ(faulty_h.detected, 0) << c.site;
  }
  if (c.fires_on_m3r) {
    EXPECT_GE(faulty_m.detected, 1) << c.site;
    EXPECT_EQ(faulty_m.repaired, faulty_m.detected) << c.site;
  } else {
    EXPECT_EQ(faulty_m.detected, 0) << c.site;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, RepairEquivalenceTest,
    ::testing::Values(
        CorruptionSiteCase{"DfsBlock", "corrupt.dfs.block", true, true},
        CorruptionSiteCase{"ChannelFrame", "corrupt.channel.frame", false,
                           true},
        CorruptionSiteCase{"CacheBlock", "corrupt.cache.block", false, true},
        CorruptionSiteCase{"Spill", "corrupt.spill", true, false}),
    [](const ::testing::TestParamInfo<CorruptionSiteCase>& info) {
      return info.param.name;
    });

// Acceptance: the iterative workload too — repair mode under a single
// corruption leaves SpMV's result bit-identical on both engines.
TEST(IntegrityAcceptance, SpmvRepairModeBitIdenticalOnBothEngines) {
  workloads::SpmvDataParams params;
  params.n = 400;
  params.block = 100;
  params.sparsity = 0.05;
  params.num_partitions = 2;

  auto run = [&](bool use_m3r, bool with_fault)
      -> std::pair<std::vector<double>, int64_t> {
    auto fs = dfs::MakeSimDfs(4, 256 * 1024);
    M3R_CHECK_OK(workloads::GenerateSpmvData(*fs, "/spmv/g", "/spmv/v",
                                             params));
    std::unique_ptr<api::Engine> engine;
    std::shared_ptr<dfs::FileSystem> read_fs = fs;
    sim::ClusterSpec spec = TestCluster();
    if (use_m3r) {
      auto m3r = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{spec});
      read_fs = m3r->Fs();
      engine = std::move(m3r);
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0});
    }
    auto jobs = workloads::MakeSpmvIterationJobs("/spmv/g", "/spmv/v",
                                                 "/spmv/temp-p",
                                                 "/spmv/temp-out", 2, 4);
    int64_t detected = 0;
    for (api::JobConf job : jobs) {
      if (with_fault) {
        job.Set(api::conf::kIntegrityMode, "repair");
        job.Set("m3r.fault.seed", "9");
        job.Set("m3r.fault.corrupt.dfs.block.prob", "1.0");
        job.Set("m3r.fault.corrupt.dfs.block.limit", "1");
      }
      auto result = engine->Submit(job);
      M3R_CHECK(result.ok()) << result.status.ToString();
      if (result.metrics.count("integrity_detected")) {
        detected += result.metrics.at("integrity_detected");
      }
    }
    auto v = workloads::ReadDenseVector(*read_fs, "/spmv/temp-out", params.n,
                                        params.block);
    M3R_CHECK(v.ok()) << v.status().ToString();
    return {v.take(), detected};
  };

  for (bool use_m3r : {false, true}) {
    auto [clean, clean_detected] = run(use_m3r, false);
    auto [repaired, detected] = run(use_m3r, true);
    // Bit-identical doubles: repair served the pristine bytes, so the
    // arithmetic consumed exactly the same inputs.
    EXPECT_EQ(repaired, clean) << (use_m3r ? "m3r" : "hadoop");
    EXPECT_EQ(clean_detected, 0);
    EXPECT_GE(detected, 1) << (use_m3r ? "m3r" : "hadoop");
  }
}

// Acceptance: detect mode refuses to commit on both engines.
TEST(IntegrityAcceptance, DetectModeFailsDataLossOnBothEngines) {
  for (bool use_m3r : {false, true}) {
    auto fs = dfs::MakeSimDfs(4, 16 * 1024);
    ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 2, 5).ok());
    std::unique_ptr<api::Engine> engine;
    sim::ClusterSpec spec = TestCluster();
    if (use_m3r) {
      engine = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{spec});
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0});
    }
    api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 2, true);
    job.Set(api::conf::kIntegrityMode, "detect");
    job.Set("m3r.fault.seed", "9");
    // Unlimited: the pure per-replica coins corrupt every read, so no task
    // re-attempt can sneak a clean copy past detect mode.
    job.Set("m3r.fault.corrupt.dfs.block.prob", "1.0");
    job.Set(api::conf::kMapMaxAttempts, "2");
    auto result = engine->Submit(job);
    EXPECT_FALSE(result.ok()) << (use_m3r ? "m3r" : "hadoop");
    EXPECT_TRUE(result.status.IsDataLoss())
        << (use_m3r ? "m3r: " : "hadoop: ") << result.status.ToString();
    EXPECT_FALSE(fs->Exists("/out/_SUCCESS"));
    EXPECT_GE(result.metrics.at("integrity_detected"), 1);
  }
}

// --- Map-side hash aggregation: same bytes out, fewer bytes on the wire ---

struct HashCombineRun {
  std::vector<std::string> lines;
  int64_t wire_bytes = 0;
  int64_t map_output_records = 0;
  int64_t combine_input = 0;
  int64_t combine_output = 0;
  int64_t reduce_input_groups = 0;
  int64_t reduce_input_records = 0;
  int64_t detected = 0;
  int64_t repaired = 0;
};

/// WordCount with m3r.map.hash.combine toggled. One worker lane per place
/// keeps the wire-byte comparison deterministic and gives each lane
/// several splits, which is the scope the lane-persistent table folds
/// across.
HashCombineRun RunWordCountHashCombine(
    bool use_m3r, bool hash_combine,
    const std::map<std::string, std::string>& extra) {
  HashCombineRun r;
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 2048 * 1024, 4, 99));
  std::unique_ptr<api::Engine> engine;
  sim::ClusterSpec spec = TestCluster();
  if (use_m3r) {
    engine = std::make_unique<engine::M3REngine>(
        fs, engine::M3REngineOptions{spec});
  } else {
    engine = std::make_unique<hadoop::HadoopEngine>(
        fs, hadoop::HadoopEngineOptions{spec, 0});
  }
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set(api::conf::kPlaceWorkers, "1");
  if (hash_combine) job.Set(api::conf::kMapHashCombine, "true");
  for (const auto& [k, v] : extra) job.Set(k, v);
  auto result = engine->Submit(job);
  M3R_CHECK(result.ok()) << result.status.ToString();
  r.lines = ReadOutputLines(*fs, "/out");
  if (result.metrics.count("shuffle_wire_bytes")) {
    r.wire_bytes = result.metrics.at("shuffle_wire_bytes");
  }
  r.map_output_records = result.counters.Get(
      api::counters::kTaskGroup, api::counters::kMapOutputRecords);
  r.combine_input = result.counters.Get(
      api::counters::kTaskGroup, api::counters::kCombineInputRecords);
  r.combine_output = result.counters.Get(
      api::counters::kTaskGroup, api::counters::kCombineOutputRecords);
  r.reduce_input_groups = result.counters.Get(
      api::counters::kTaskGroup, api::counters::kReduceInputGroups);
  r.reduce_input_records = result.counters.Get(
      api::counters::kTaskGroup, api::counters::kReduceInputRecords);
  if (result.metrics.count("integrity_detected")) {
    r.detected = result.metrics.at("integrity_detected");
    r.repaired = result.metrics.at("integrity_repaired");
  }
  return r;
}

TEST(HashCombineEquivalence, ByteIdenticalAndCutsWireBytes) {
  HashCombineRun h_off = RunWordCountHashCombine(false, false, {});
  HashCombineRun h_on = RunWordCountHashCombine(false, true, {});
  HashCombineRun m_off = RunWordCountHashCombine(true, false, {});
  HashCombineRun m_on = RunWordCountHashCombine(true, true, {});

  // Byte-identical output: engine x {off, on} all agree.
  ASSERT_FALSE(h_off.lines.empty());
  EXPECT_EQ(h_off.lines, h_on.lines);
  EXPECT_EQ(h_off.lines, m_off.lines);
  EXPECT_EQ(h_off.lines, m_on.lines);

  // Hadoop counter semantics survive the wrapper: one MAP_OUTPUT_RECORDS
  // per mapper emission whether the table absorbed it or not, and the
  // incremental folds feed the COMBINE counters.
  EXPECT_EQ(h_on.map_output_records, h_off.map_output_records);
  EXPECT_EQ(m_on.map_output_records, m_off.map_output_records);
  EXPECT_GT(h_on.combine_input, 0);
  EXPECT_GT(m_on.combine_input, 0);

  // Acceptance: the lane-persistent table folds keys across all of a
  // lane's splits, so the shuffle moves at most half the wire bytes of the
  // per-task combine baseline.
  ASSERT_GT(m_off.wire_bytes, 0);
  EXPECT_GT(m_on.wire_bytes, 0);
  EXPECT_LE(m_on.wire_bytes * 2, m_off.wire_bytes)
      << "hash combine on: " << m_on.wire_bytes
      << " off: " << m_off.wire_bytes;
  // The drain writes the table's own bytes to the wire; pinned so that any
  // drift from what serializing each pair writes shows up here.
  EXPECT_EQ(m_on.wire_bytes, 771827);

  // Multi-strand places: one table per lane, same bytes out (wire bytes
  // shift with lane assignment, so only output is compared).
  HashCombineRun m_on_2w = RunWordCountHashCombine(
      true, true, {{api::conf::kPlaceWorkers, "2"}});
  EXPECT_EQ(m_on_2w.lines, m_off.lines);
  EXPECT_EQ(m_on_2w.map_output_records, m_off.map_output_records);
}

// The combine and reduce-group counters are tallied per task and posted
// once; the totals a job reports must not move. The pinned values are the
// ones per-record posting gave on this input.
TEST(HashCombineEquivalence, TalliedCountersKeepTheirTotals) {
  struct Want {
    bool use_m3r;
    int64_t combine_input;
    int64_t combine_output;
    int64_t reduce_input_records;
  };
  for (const Want& want : {Want{false, 412016, 207856, 181910},
                           Want{true, 378477, 59204, 66797}}) {
    SCOPED_TRACE(want.use_m3r ? "m3r" : "hadoop");
    HashCombineRun r = RunWordCountHashCombine(want.use_m3r, true, {});
    EXPECT_EQ(r.map_output_records, 386070);
    EXPECT_EQ(r.combine_input, want.combine_input);
    EXPECT_EQ(r.combine_output, want.combine_output);
    EXPECT_EQ(r.reduce_input_records, want.reduce_input_records);
    // Every combine run is counted: what reaches the reducers is what the
    // mappers emitted less what the folds removed.
    EXPECT_EQ(r.reduce_input_records,
              r.map_output_records - r.combine_input + r.combine_output);
    // One reduce group per distinct word, i.e. per output line.
    EXPECT_EQ(r.reduce_input_groups, 19997);
    EXPECT_EQ(r.reduce_input_groups, static_cast<int64_t>(r.lines.size()));
  }
}

TEST(HashCombineEquivalence, RepairModeStillByteIdentical) {
  auto corrupt = [](const std::string& site) {
    return std::map<std::string, std::string>{
        {api::conf::kIntegrityMode, "repair"},
        {"m3r.fault.seed", "9"},
        {"m3r.fault.corrupt." + site + ".prob", "1.0"},
        {"m3r.fault.corrupt." + site + ".limit", "1"},
    };
  };
  // Each engine gets a flip on the boundary the hash-combined records
  // actually cross: Hadoop's spill files, M3R's shuffle channel frames.
  HashCombineRun h_clean = RunWordCountHashCombine(false, true, {});
  HashCombineRun h_rep =
      RunWordCountHashCombine(false, true, corrupt("spill"));
  HashCombineRun m_clean = RunWordCountHashCombine(true, true, {});
  HashCombineRun m_rep =
      RunWordCountHashCombine(true, true, corrupt("channel.frame"));

  ASSERT_FALSE(h_clean.lines.empty());
  EXPECT_EQ(h_rep.lines, h_clean.lines);
  EXPECT_EQ(m_rep.lines, m_clean.lines);
  EXPECT_GE(h_rep.detected, 1);
  EXPECT_EQ(h_rep.repaired, h_rep.detected);
  EXPECT_GE(m_rep.detected, 1);
  EXPECT_EQ(m_rep.repaired, m_rep.detected);
}

}  // namespace
}  // namespace m3r

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/sequence_file.h"
#include "common/logging.h"
#include "dfs/local_fs.h"
#include "exit_paths.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "m3r/repartition.h"
#include "serialize/basic_writables.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::engine {
namespace {

using serialize::LongWritable;

sim::ClusterSpec SmallCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

M3REngineOptions DefaultOptions() {
  M3REngineOptions opts;
  opts.cluster = SmallCluster();
  return opts;
}

TEST(M3REngineTest, TemporaryOutputNeverTouchesDfs) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  auto result = m3r.Submit(
      workloads::MakeWordCountJob("/in", "/results/temp-wc", 2, true));
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  // Nothing on the DFS...
  EXPECT_FALSE(fs->Exists("/results/temp-wc"));
  EXPECT_EQ(result.metrics.at("hdfs_write_bytes"), 0);
  // ...but the cache holds the output and the union FS view exposes it.
  EXPECT_TRUE(m3r.cache().ContainsFile("/results/temp-wc/part-00000"));
  EXPECT_TRUE(m3r.Fs()->Exists("/results/temp-wc/part-00000"));
}

TEST(M3REngineTest, TemporaryOutputReadableByNextJob) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeWordCountJob("/in", "/temp-x", 2, true))
          .ok());
  // Second job consumes the temporary output; every split is a cache hit.
  api::JobConf job2;
  job2.SetJobName("consume-temp");
  job2.AddInputPath("/temp-x");
  job2.SetOutputPath("/final");
  job2.SetMapperClass(api::mapred::IdentityMapper::kClassName);
  job2.SetReducerClass(api::mapred::IdentityReducer::kClassName);
  job2.SetNumReduceTasks(2);
  job2.SetOutputKeyClass(serialize::Text::kTypeName);
  job2.SetOutputValueClass(serialize::IntWritable::kTypeName);
  auto result = m3r.Submit(job2);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.metrics.at("cache_hit_splits"), 0);
  EXPECT_EQ(result.metrics.at("cache_miss_splits"), 0);
  EXPECT_TRUE(fs->Exists("/final/_SUCCESS"));
}

TEST(M3REngineTest, IdentityReducerChainAliasesAndMatchesHadoop) {
  // The identity reducer forwards engine-built objects only, so it carries
  // the ImmutableOutput promise; the identity mapper forwards its runner's
  // objects and does not.
  api::mapred::IdentityReducer reducer;
  api::mapred::IdentityMapper mapper;
  EXPECT_TRUE(api::IsImmutableOutput(&reducer));
  EXPECT_FALSE(api::IsImmutableOutput(&mapper));

  // The two-job chain above, with binary formats so both engines feed the
  // second job the same pairs: WordCount into a temporary output, then an
  // identity pass over it. Every final part file must match byte for byte
  // once decoded (sync markers are random per file).
  auto run = [](bool use_m3r, api::JobResult* second) {
    auto fs = dfs::MakeSimDfs(4, 8 * 1024);
    M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5));
    std::unique_ptr<api::Engine> engine;
    if (use_m3r) {
      engine = std::make_unique<M3REngine>(fs, DefaultOptions());
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{SmallCluster(), 0});
    }
    api::JobConf job1 =
        workloads::MakeWordCountJob("/in", "/temp-x", 2, true);
    job1.SetOutputFormatClass(api::SequenceFileOutputFormat::kClassName);
    M3R_CHECK(engine->Submit(job1).ok());
    api::JobConf job2;
    job2.SetJobName("consume-temp");
    job2.AddInputPath("/temp-x");
    job2.SetOutputPath("/final");
    job2.SetInputFormatClass(api::SequenceFileInputFormat::kClassName);
    job2.SetOutputFormatClass(api::SequenceFileOutputFormat::kClassName);
    job2.SetMapperClass(api::mapred::IdentityMapper::kClassName);
    job2.SetReducerClass(api::mapred::IdentityReducer::kClassName);
    job2.SetNumReduceTasks(2);
    job2.SetOutputKeyClass(serialize::Text::kTypeName);
    job2.SetOutputValueClass(serialize::IntWritable::kTypeName);
    *second = engine->Submit(job2);
    M3R_CHECK(second->ok()) << second->status.ToString();
    std::vector<std::string> parts;
    for (int p = 0; p < 2; ++p) {
      auto pairs = api::ReadSequenceFile(
          *fs, "/final/" + api::file_output::PartFileName(p));
      M3R_CHECK(pairs.ok()) << pairs.status().ToString();
      std::string bytes;
      for (const auto& [k, v] : *pairs) {
        bytes += serialize::SerializeToString(*k) +
                 serialize::SerializeToString(*v);
      }
      parts.push_back(std::move(bytes));
    }
    return parts;
  };
  api::JobResult hadoop_result, m3r_result;
  const std::vector<std::string> hadoop_parts = run(false, &hadoop_result);
  const std::vector<std::string> m3r_parts = run(true, &m3r_result);
  ASSERT_FALSE(hadoop_parts[0].empty());
  EXPECT_EQ(m3r_parts, hadoop_parts);
  EXPECT_GT(m3r_result.metrics.at("cache_hit_splits"), 0);
}

TEST(M3REngineTest, ExplicitTempPathsListRespected) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  api::JobConf job = workloads::MakeWordCountJob("/in", "/plain-name", 1,
                                                 true);
  job.Set(api::conf::kTempPaths, "/plain-name");
  ASSERT_TRUE(m3r.Submit(job).ok());
  EXPECT_FALSE(fs->Exists("/plain-name"));
  EXPECT_TRUE(m3r.cache().ContainsFile("/plain-name/part-00000"));
}

TEST(M3REngineTest, CustomTempPrefixRespected) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  api::JobConf job =
      workloads::MakeWordCountJob("/in", "/scratch-wc", 1, true);
  job.Set(api::conf::kTempPrefix, "scratch");
  ASSERT_TRUE(m3r.Submit(job).ok());
  EXPECT_FALSE(fs->Exists("/scratch-wc"));
}

TEST(M3REngineTest, FsInterceptionDeletesFromCacheAndDfs) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeWordCountJob("/in", "/out", 1, true)).ok());
  ASSERT_TRUE(m3r.cache().ContainsFile("/out/part-00000"));
  // Deleting through the intercepting FS clears both layers (§4.2.3).
  ASSERT_TRUE(m3r.Fs()->Delete("/out", true).ok());
  EXPECT_FALSE(fs->Exists("/out"));
  EXPECT_FALSE(m3r.cache().ContainsFile("/out/part-00000"));
}

TEST(M3REngineTest, RawCacheOperatesOnCacheOnly) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeWordCountJob("/in", "/out", 1, true)).ok());
  auto raw = m3r.Fs()->GetRawCache();
  ASSERT_TRUE(raw->Exists("/out/part-00000"));
  // Deleting via the raw cache removes the cached pairs but leaves the
  // DFS file intact (§4.2.3).
  ASSERT_TRUE(raw->Delete("/out/part-00000", true).ok());
  EXPECT_FALSE(m3r.cache().ContainsFile("/out/part-00000"));
  EXPECT_TRUE(fs->Exists("/out/part-00000"));
}

TEST(M3REngineTest, CacheRecordReaderServesCachedPairs) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeWordCountJob("/in", "/temp-q", 1, true))
          .ok());
  auto reader = m3r.Fs()->GetCacheRecordReader("/temp-q/part-00000");
  ASSERT_TRUE(reader.ok());
  auto key = (*reader)->CreateKey();
  auto value = (*reader)->CreateValue();
  int records = 0;
  while ((*reader)->Next(*key, *value)) ++records;
  EXPECT_GT(records, 0);
}

TEST(M3REngineTest, PartitionStabilityShufflesLocallyAcrossJobs) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  const int kPartitions = 4;
  // Partition-stable placement (post-repartition state).
  ASSERT_TRUE(workloads::GenerateMicroInput(*fs, "/micro", 400, 64,
                                            kPartitions, 3, false)
                  .ok());
  M3REngine m3r(fs, DefaultOptions());
  // remote_ratio 0: with stable partitions everything shuffles locally.
  auto job = workloads::MakeMicroJob("/micro", "/temp-out1", kPartitions,
                                     0.0, 1);
  auto result = m3r.Submit(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.at("shuffle_remote_pairs"), 0);
  EXPECT_EQ(result.metrics.at("shuffle_local_pairs"), 400);

  // Second iteration reads the first job's (temporary, cached) output and
  // must stay local too — the partition-stability payoff (§3.2.2.2).
  auto job2 = workloads::MakeMicroJob("/temp-out1", "/temp-out2",
                                      kPartitions, 0.0, 2);
  auto result2 = m3r.Submit(job2);
  ASSERT_TRUE(result2.ok()) << result2.status.ToString();
  EXPECT_EQ(result2.metrics.at("shuffle_remote_pairs"), 0);
  EXPECT_GT(result2.metrics.at("cache_hit_splits"), 0);
}

TEST(M3REngineTest, StabilityAblationBreaksLocality) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  ASSERT_TRUE(
      workloads::GenerateMicroInput(*fs, "/micro", 400, 64, 4, 3, false)
          .ok());
  M3REngineOptions opts = DefaultOptions();
  opts.partition_stability = false;
  M3REngine m3r(fs, opts);
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeMicroJob("/micro", "/temp-a", 4, 0.0, 1))
          .ok());
  auto r2 =
      m3r.Submit(workloads::MakeMicroJob("/temp-a", "/temp-b", 4, 0.0, 2));
  ASSERT_TRUE(r2.ok());
  // Without stability, the second job's input lives at places that no
  // longer own the partitions: pairs must move.
  EXPECT_GT(r2.metrics.at("shuffle_remote_pairs"), 0);
}

TEST(M3REngineTest, DedupCollapsesBroadcastValues) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  ASSERT_TRUE(
      workloads::GenerateMicroInput(*fs, "/micro", 200, 256, 4, 3, false)
          .ok());
  // 100% remote: every pair crosses places; the payload object of each
  // input pair is emitted once, so no dedup within a pair — but the
  // MicroMapper aliases the same `value` pointer it received, and each
  // (key,value) is distinct. Dedup savings come from repeated objects; use
  // two engines to compare wire bytes instead.
  M3REngineOptions with = DefaultOptions();
  M3REngineOptions without = DefaultOptions();
  without.dedup_mode = serialize::DedupMode::kOff;

  M3REngine e1(fs, with);
  auto r1 =
      e1.Submit(workloads::MakeMicroJob("/micro", "/temp-c", 4, 1.0, 1));
  ASSERT_TRUE(r1.ok());

  auto fs2 = dfs::MakeSimDfs(4, 64 * 1024);
  ASSERT_TRUE(
      workloads::GenerateMicroInput(*fs2, "/micro", 200, 256, 4, 3, false)
          .ok());
  M3REngine e2(fs2, without);
  auto r2 =
      e2.Submit(workloads::MakeMicroJob("/micro", "/temp-c", 4, 1.0, 1));
  ASSERT_TRUE(r2.ok());

  // Identical pair flow either way.
  EXPECT_EQ(r1.metrics.at("shuffle_remote_pairs"),
            r2.metrics.at("shuffle_remote_pairs"));
  // Wire bytes with dedup are never larger.
  EXPECT_LE(r1.metrics.at("shuffle_wire_bytes"),
            r2.metrics.at("shuffle_wire_bytes"));
}

TEST(M3REngineTest, RepartitionJobRestoresLocality) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  // Data generated "by Hadoop": arbitrary partition->host placement.
  ASSERT_TRUE(
      workloads::GenerateMicroInput(*fs, "/micro", 400, 64, 4, 3, true)
          .ok());
  M3REngine m3r(fs, DefaultOptions());

  // Repartition (identity job with the same partitioner), then iterate.
  api::JobConf base = workloads::MakeMicroJob("/micro", "", 4, 0.0, 1);
  api::JobConf repart =
      MakeRepartitionJob(base, "/micro", "/micro-stable");
  auto rp = m3r.Submit(repart);
  ASSERT_TRUE(rp.ok()) << rp.status.ToString();

  auto it1 = m3r.Submit(
      workloads::MakeMicroJob("/micro-stable", "/temp-i1", 4, 0.0, 2));
  ASSERT_TRUE(it1.ok());
  EXPECT_EQ(it1.metrics.at("shuffle_remote_pairs"), 0);
}

TEST(M3REngineTest, CacheDisabledAblationAlwaysRereads) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5).ok());
  M3REngineOptions opts = DefaultOptions();
  opts.enable_cache = false;
  M3REngine m3r(fs, opts);
  ASSERT_TRUE(
      m3r.Submit(workloads::MakeWordCountJob("/in", "/o1", 2, true)).ok());
  auto r2 = m3r.Submit(workloads::MakeWordCountJob("/in", "/o2", 2, true));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.metrics.at("cache_hit_splits"), 0);
  EXPECT_GT(r2.metrics.at("hdfs_read_bytes"), 0);
}

TEST(M3REngineTest, PrepopulateCacheMakesFirstJobHit) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 2, true);
  auto loaded = m3r.PrepopulateCache(job);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(*loaded, 0);
  auto result = m3r.Submit(job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.metrics.at("cache_miss_splits"), 0);
  EXPECT_EQ(result.metrics.at("hdfs_read_bytes"), 0);
}

TEST(M3REngineTest, ForceHadoopRoutesThroughJobClient) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  auto m3r = std::make_shared<M3REngine>(fs, DefaultOptions());
  auto hadoop = std::make_shared<hadoop::HadoopEngine>(
      fs, hadoop::HadoopEngineOptions{SmallCluster(), 0});
  api::JobClient client(m3r, hadoop);

  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 1, true);
  job.SetBool(api::conf::kForceHadoopEngine, true);
  auto result = client.SubmitJob(job);
  ASSERT_TRUE(result.ok());
  // The Hadoop engine charges JVM startup; M3R would not.
  EXPECT_GT(result.sim_seconds, SmallCluster().task_jvm_start_s);
}

TEST(M3REngineTest, RemovedModeKeysFailNamingTheirReplacement) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  struct Stale {
    const char* key;
    const char* value;
    const char* replacement;
  };
  for (const Stale& stale :
       {Stale{"m3r.shuffle.pipeline", "off", "m3r.shuffle.flush.bytes"},
        Stale{"m3r.place.recovery", "off",
              "m3r.place.recovery.max.crashes"}}) {
    api::JobConf job = workloads::MakeWordCountJob("/in", "/stale", 1, true);
    job.Set(stale.key, stale.value);
    auto result = m3r.Submit(job);
    ASSERT_FALSE(result.ok()) << stale.key;
    EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
    EXPECT_NE(result.status.ToString().find(stale.replacement),
              std::string::npos)
        << result.status.ToString();
    EXPECT_FALSE(fs->Exists("/stale"));
  }
  // The former defaults name the only remaining behaviour and still run.
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 1, true);
  job.Set("m3r.shuffle.pipeline", "on");
  job.Set("m3r.place.recovery", "replay");
  auto result = m3r.Submit(job);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
}

TEST(M3REngineTest, BadConfValuesFailNamingTheKeyBeforeClaimingOutput) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  hadoop::HadoopEngine hadoop(fs,
                              hadoop::HadoopEngineOptions{SmallCluster(), 0});
  struct Bad {
    const char* key;
    const char* value;
    /// A declared key the message must also name (a typo's nearest key).
    const char* names = nullptr;
  };
  const Bad kBad[] = {
      {api::conf::kCacheCheckpoint, "bogus"},
      {api::conf::kPlaceRecoveryMaxCrashes, "-1"},
      {api::conf::kPlaceCrashAt, "1"},
      {api::conf::kPlaceCrashAt, "1:"},
      {api::conf::kPlaceCrashAt, ":1"},
      {api::conf::kPlaceCrashAt, "a:1"},
      {api::conf::kPlaceCrashAt, "1:2x"},
      {api::conf::kPlaceCrashAt, "-1:1"},
      {api::conf::kPlaceCrashAt, "1:-1"},
      {api::conf::kCacheL2Share, "-0.1"},
      {api::conf::kCacheL2Share, "1.5"},
      {api::conf::kCacheReuse, "fuzzy"},
      {api::conf::kIntegrityMode, "sometimes"},
      {api::conf::kCachePolicy, "mru"},
      {api::conf::kShuffleFlushBytes, "256k"},
      {api::conf::kMapHashCombine, "on"},
      {"m3r.shufle.flush.bytes", "0", api::conf::kShuffleFlushBytes},
      {"m3r.fault.dfs.reed.prob", "1"},
      {"m3r.fault.dfs.read.probability", "1"},
      {api::conf::kCacheL2VNodes, "0"},
      {api::conf::kMemoryHighWatermark, "1.5"},
      {"m3r.server.max.inflight", "4"},
      {api::conf::kMapHashCombineMemoryMb, "-1"},
      {"m3r.memory.share.shuffle.pool", "0.5"},
      {"m3r.chaos.seed", "1"},
  };
  // Both engines share the knob table, so each rejects the same confs.
  for (api::Engine* engine : {static_cast<api::Engine*>(&m3r),
                              static_cast<api::Engine*>(&hadoop)}) {
    for (const Bad& bad : kBad) {
      api::JobConf job = workloads::MakeWordCountJob("/in", "/bad", 1, true);
      job.Set(bad.key, bad.value);
      auto result = engine->Submit(job);
      const std::string what =
          engine->Name() + ": " + bad.key + "=" + bad.value;
      const std::string message = result.status.ToString();
      EXPECT_TRUE(result.status.IsInvalidArgument()) << what << ": " << message;
      EXPECT_NE(message.find(bad.key), std::string::npos)
          << what << ": " << message;
      if (bad.names != nullptr) {
        EXPECT_NE(message.find(bad.names), std::string::npos)
            << what << ": " << message;
      }
      EXPECT_FALSE(fs->Exists("/bad")) << what;
      EXPECT_FALSE(m3r.Fs()->Exists("/bad")) << what;
    }
  }
  int n = 0;
  for (const char* crash_at : {"", "1:1,", "0:2,3:1"}) {
    api::JobConf job = workloads::MakeWordCountJob(
        "/in", "/good" + std::to_string(n++), 1, true);
    job.Set(api::conf::kPlaceCrashAt, crash_at);
    auto result = m3r.Submit(job);
    EXPECT_TRUE(result.ok()) << "'" << crash_at
                             << "': " << result.status.ToString();
  }
}

TEST(M3REngineTest, CacheShareIsSetOnEveryJob) {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 1, 5).ok());
  M3REngine m3r(fs, DefaultOptions());
  api::JobConf a = workloads::MakeWordCountJob("/in", "/a", 1, true);
  a.SetInt(api::conf::kMemoryBudgetMb, 64);
  a.SetDouble(api::conf::kMemoryShareCache, 0.25);
  ASSERT_TRUE(m3r.Submit(a).ok());
  EXPECT_EQ(m3r.governor().ConsumerBudget("cache"), uint64_t{16} << 20);
  // Job B sets only the budget: the share is back to its default, the
  // whole budget, rather than job A's quarter.
  api::JobConf b = workloads::MakeWordCountJob("/in", "/b", 1, true);
  b.SetInt(api::conf::kMemoryBudgetMb, 64);
  ASSERT_TRUE(m3r.Submit(b).ok());
  EXPECT_EQ(m3r.governor().ConsumerBudget("cache"), uint64_t{64} << 20);
}

using exit_paths::Exit;
using exit_paths::RunExit;

/// The exit's status code, its metric and counter keys, and the values of
/// the metrics that depend only on the input and the conf.
std::string ExitSummary(const api::JobResult& r) {
  static constexpr const char* kPinned[] = {
      "map_tasks", "cache_hit_splits", "cache_miss_splits", "place_workers",
      "reduce_tasks", "hdfs_read_bytes", "hdfs_write_bytes",
      "shuffle_local_pairs", "shuffle_remote_pairs", "shuffle_wire_bytes",
      "dedup_objects", "dedup_saved_bytes", "aliased_pairs", "cloned_pairs",
      "shuffle_runs_shipped", "shuffle_overflow_spills", "reused_from_cache",
      "recovered_from_checkpoint", "recovered_files", "recovered_bytes",
      "place_crashes", "recovered_map_tasks", "cache_evicted_by_crash_blocks",
      "membership_epoch", "partition_map_version", "injected_faults"};
  std::string s = StatusCodeName(r.status.code());
  s += "\nmetrics:";
  for (const auto& [name, value] : r.metrics) s += " " + name;
  s += "\ncounters:";
  for (const auto& [key, value] : r.counters.Snapshot()) {
    s += " " + key.first + "/" + key.second;
  }
  s += "\nvalues:";
  for (const char* name : kPinned) {
    auto it = r.metrics.find(name);
    if (it != r.metrics.end()) {
      s += std::string(" ") + name + "=" + std::to_string(it->second);
    }
  }
  return s;
}

struct ExitCase {
  const char* name;
  Exit exit;
  bool ok;
  bool charged;        // sim_seconds > 0
  const char* phases;  // exit_paths::PhaseKeys
  const char* golden;
};

/// `phases` and `golden` (the exit's ExitSummary) are pinned: a change to
/// one is a change in what a job reports on that path, and must be made on
/// purpose.
const ExitCase kExitCases[] = {
    {"reduce", Exit::kReduce, true, true,
     "exit_barrier job_overhead map_phase reduce_phase shuffle sort",
      "OK\n"
      "metrics: aliased_pairs cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "cloned_pairs dedup_objects dedup_saved_bytes hdfs_read_bytes "
      "hdfs_write_bytes map_tasks place_workers reduce_tasks "
      "shuffle_local_pairs shuffle_max_partition_run_bytes "
      "shuffle_overflow_spills shuffle_pool_peak_bytes shuffle_remote_pairs "
      "shuffle_runs_shipped shuffle_wire_bytes "
      "time_to_first_reduce_ms\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ "
      "FileSystemCounters/HDFS_BYTES_WRITTEN M3R/ALIASED_PAIRS "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS M3R/CLONED_PAIRS M3R/DEDUPED_OBJECTS "
      "M3R/DEDUP_SAVED_BYTES M3R/LOCAL_SHUFFLE_PAIRS "
      "M3R/REMOTE_SHUFFLE_PAIRS M3R/SHUFFLE_OVERFLOW_SPILLS "
      "M3R/SHUFFLE_RUNS_SHIPPED "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_GROUPS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 reduce_tasks=2 hdfs_read_bytes=65691 "
      "hdfs_write_bytes=39168 shuffle_local_pairs=1482 "
      "shuffle_remote_pairs=4535 shuffle_wire_bytes=68351 dedup_objects=0 "
      "dedup_saved_bytes=0 aliased_pairs=1482 cloned_pairs=12120 "
      "shuffle_runs_shipped=6 shuffle_overflow_spills=0"},
    {"map-only-dfs", Exit::kMapOnlyDfs, true, true,
     "exit_barrier job_overhead map_phase",
      "OK\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "hdfs_read_bytes hdfs_write_bytes map_tasks place_workers\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ "
      "FileSystemCounters/HDFS_BYTES_WRITTEN "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 hdfs_read_bytes=65691 hdfs_write_bytes=89931"},
    {"map-only-temp", Exit::kMapOnlyTemp, true, true,
     "exit_barrier job_overhead map_phase",
      "OK\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "hdfs_read_bytes hdfs_write_bytes map_tasks place_workers\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 hdfs_read_bytes=65691 hdfs_write_bytes=0"},
    {"reuse-hit", Exit::kReuseHit, true, true, "job_overhead",
      "OK\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_leases_active cache_rejected_fills "
      "cache_spilled_evictions reused_from_cache\n"
      "counters: M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_LEASES_ACTIVE "
      "M3R/CACHE_REJECTED_FILLS M3R/REUSED_FROM_CACHE\n"
      "values: reused_from_cache=1"},
    {"checkpoint-restore", Exit::kCheckpointRestore, true, true,
     "checkpoint_restore job_overhead",
      "OK\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_leases_active cache_rejected_fills "
      "cache_spilled_evictions recovered_bytes recovered_files "
      "recovered_from_checkpoint\n"
      "counters: M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_LEASES_ACTIVE "
      "M3R/CACHE_REJECTED_FILLS\n"
      "values: recovered_from_checkpoint=1 recovered_files=2 "
      "recovered_bytes=48674"},
    {"recovered-crash", Exit::kRecoveredCrash, true, true,
     "exit_barrier job_overhead map_phase recovery reduce_phase shuffle sort",
      "OK\n"
      "metrics: aliased_pairs cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_by_crash_blocks cache_evicted_bytes cache_evictions "
      "cache_evictor_inflight cache_forced_fills cache_hit_splits "
      "cache_leases_active cache_miss_splits cache_rejected_fills "
      "cache_spilled_evictions cloned_pairs dedup_objects dedup_saved_bytes "
      "hdfs_read_bytes hdfs_write_bytes map_tasks membership_epoch "
      "partition_map_version place_crashes place_workers "
      "recovered_map_tasks recovery_millis reduce_tasks shuffle_local_pairs "
      "shuffle_max_partition_run_bytes shuffle_overflow_spills "
      "shuffle_pool_peak_bytes shuffle_remote_pairs "
      "shuffle_runs_shipped shuffle_wire_bytes time_to_first_reduce_ms\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ "
      "FileSystemCounters/HDFS_BYTES_WRITTEN M3R/ALIASED_PAIRS "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTED_BY_CRASH_BLOCKS "
      "M3R/CACHE_EVICTIONS M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS M3R/CLONED_PAIRS M3R/DEDUPED_OBJECTS "
      "M3R/DEDUP_SAVED_BYTES M3R/LOCAL_SHUFFLE_PAIRS M3R/PLACE_CRASHES "
      "M3R/RECOVERED_MAP_TASKS M3R/RECOVERY_MILLIS M3R/REMOTE_SHUFFLE_PAIRS "
      "M3R/SHUFFLE_OVERFLOW_SPILLS M3R/SHUFFLE_RUNS_SHIPPED "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_GROUPS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 reduce_tasks=2 hdfs_read_bytes=65691 "
      "hdfs_write_bytes=39168 shuffle_local_pairs=1482 "
      "shuffle_remote_pairs=4535 shuffle_wire_bytes=68336 dedup_objects=0 "
      "dedup_saved_bytes=0 aliased_pairs=1482 cloned_pairs=0 "
      "shuffle_runs_shipped=5 shuffle_overflow_spills=0 place_crashes=1 "
      "recovered_map_tasks=1 cache_evicted_by_crash_blocks=1 "
      "membership_epoch=2 partition_map_version=2"},
    {"unrecovered-crash", Exit::kUnrecoveredCrash, false, true,
     "job_overhead map_phase_partial",
      "Unavailable\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_by_crash_blocks cache_evicted_bytes cache_evictions "
      "cache_evictor_inflight cache_forced_fills cache_hit_splits "
      "cache_leases_active cache_miss_splits cache_rejected_fills "
      "cache_spilled_evictions map_tasks membership_epoch "
      "partition_map_version place_crashes place_workers "
      "recovered_map_tasks\n"
      "counters: M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTED_BY_CRASH_BLOCKS "
      "M3R/CACHE_EVICTIONS M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS M3R/PLACE_CRASHES "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 place_crashes=1 recovered_map_tasks=0 "
      "cache_evicted_by_crash_blocks=1 membership_epoch=2 "
      "partition_map_version=1"},
    {"reduce-fault", Exit::kReduceFault, false, false, "",
      "Unavailable\n"
      "metrics: aliased_pairs cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "cloned_pairs dedup_objects dedup_saved_bytes hdfs_read_bytes "
      "hdfs_write_bytes injected_faults map_tasks place_workers "
      "shuffle_local_pairs shuffle_max_partition_run_bytes "
      "shuffle_overflow_spills shuffle_pool_peak_bytes shuffle_remote_pairs "
      "shuffle_runs_shipped shuffle_wire_bytes "
      "time_to_first_reduce_ms\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ M3R/ALIASED_PAIRS "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS M3R/CLONED_PAIRS M3R/DEDUPED_OBJECTS "
      "M3R/DEDUP_SAVED_BYTES M3R/LOCAL_SHUFFLE_PAIRS "
      "M3R/REMOTE_SHUFFLE_PAIRS M3R/SHUFFLE_OVERFLOW_SPILLS "
      "M3R/SHUFFLE_RUNS_SHIPPED "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 hdfs_read_bytes=65691 hdfs_write_bytes=0 "
      "shuffle_local_pairs=1482 shuffle_remote_pairs=4535 "
      "shuffle_wire_bytes=68351 dedup_objects=0 dedup_saved_bytes=0 "
      "aliased_pairs=1482 cloned_pairs=0 shuffle_runs_shipped=6 "
      "shuffle_overflow_spills=0 injected_faults=2"},
    {"map-fault", Exit::kMapFault, false, false, "",
      "Unavailable\n"
      "metrics: cache_aborted_evictions cache_bytes_resident "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "injected_faults map_tasks place_workers\n"
      "counters: M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTIONS "
      "M3R/CACHE_EVICTOR_INFLIGHT M3R/CACHE_HIT_SPLITS "
      "M3R/CACHE_LEASES_ACTIVE M3R/CACHE_MISS_SPLITS "
      "M3R/CACHE_REJECTED_FILLS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 injected_faults=1"},
    {"reduce-crash", Exit::kReduceCrash, false, true,
     "job_overhead map_phase shuffle",
      "Unavailable\n"
      "metrics: aliased_pairs cache_aborted_evictions "
      "cache_bytes_resident cache_evicted_by_crash_blocks "
      "cache_evicted_bytes cache_evictions cache_evictor_inflight "
      "cache_forced_fills cache_hit_splits cache_leases_active "
      "cache_miss_splits cache_rejected_fills cache_spilled_evictions "
      "cloned_pairs dedup_objects dedup_saved_bytes hdfs_read_bytes "
      "hdfs_write_bytes injected_faults map_tasks membership_epoch "
      "partition_map_version place_crashes place_workers "
      "recovered_map_tasks shuffle_local_pairs "
      "shuffle_max_partition_run_bytes shuffle_overflow_spills "
      "shuffle_pool_peak_bytes shuffle_remote_pairs "
      "shuffle_runs_shipped shuffle_wire_bytes "
      "time_to_first_reduce_ms\n"
      "counters: FileSystemCounters/HDFS_BYTES_READ M3R/ALIASED_PAIRS "
      "M3R/CACHE_ABORTED_EVICTIONS M3R/CACHE_BYTES_RESIDENT "
      "M3R/CACHE_EVICTED_BYTES M3R/CACHE_EVICTED_BY_CRASH_BLOCKS "
      "M3R/CACHE_EVICTIONS M3R/CACHE_EVICTOR_INFLIGHT "
      "M3R/CACHE_HIT_SPLITS M3R/CACHE_LEASES_ACTIVE "
      "M3R/CACHE_MISS_SPLITS M3R/CACHE_REJECTED_FILLS "
      "M3R/CLONED_PAIRS M3R/DEDUPED_OBJECTS M3R/DEDUP_SAVED_BYTES "
      "M3R/LOCAL_SHUFFLE_PAIRS M3R/PLACE_CRASHES "
      "M3R/REMOTE_SHUFFLE_PAIRS M3R/SHUFFLE_OVERFLOW_SPILLS "
      "M3R/SHUFFLE_RUNS_SHIPPED "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/COMBINE_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/MAP_OUTPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_GROUPS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_INPUT_RECORDS "
      "org.apache.hadoop.mapred.Task$Counter/REDUCE_OUTPUT_RECORDS\n"
      "values: map_tasks=8 cache_hit_splits=0 cache_miss_splits=8 "
      "place_workers=1 hdfs_read_bytes=65691 hdfs_write_bytes=0 "
      "shuffle_local_pairs=1482 shuffle_remote_pairs=4535 "
      "shuffle_wire_bytes=68351 dedup_objects=0 dedup_saved_bytes=0 "
      "aliased_pairs=1482 cloned_pairs=0 shuffle_runs_shipped=6 "
      "shuffle_overflow_spills=0 place_crashes=1 "
      "recovered_map_tasks=0 cache_evicted_by_crash_blocks=2 "
      "membership_epoch=2 partition_map_version=1 injected_faults=1"},
};

TEST(M3REngineTest, EveryExitReportsItsPinnedMetricsAndCounters) {
  for (const ExitCase& c : kExitCases) {
    api::JobResult r = RunExit(c.exit);
    EXPECT_EQ(r.ok(), c.ok) << c.name << ": " << r.status.ToString();
    EXPECT_EQ(ExitSummary(r), c.golden) << c.name;
  }
}

TEST(M3REngineTest, TimeBreakdownSumsToSimSecondsOnEveryExit) {
  for (const ExitCase& c : kExitCases) {
    api::JobResult r = RunExit(c.exit);
    ASSERT_EQ(r.ok(), c.ok) << c.name << ": " << r.status.ToString();
    double sum = 0;
    for (const auto& [phase, seconds] : r.time_breakdown) sum += seconds;
    EXPECT_LE(std::fabs(sum - r.sim_seconds), 1e-9)
        << c.name << ": breakdown " << sum << " vs sim " << r.sim_seconds;
    EXPECT_EQ(r.sim_seconds > 0, c.charged) << c.name;
    EXPECT_EQ(exit_paths::PhaseKeys(r), c.phases) << c.name;
  }
}

/// Only the two crash fallbacks report the time a failed job charged. A
/// recovered map crash followed by a reduce fault is neither: it reports
/// no simulated time, although the job saw a crash.
TEST(M3REngineTest, RecoveredCrashThenReduceFaultReportsNoSimulatedTime) {
  auto fs = exit_paths::ExitInput();
  M3REngine m3r(fs, DefaultOptions());
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 2, true);
  job.SetInt(api::conf::kPlaceWorkers, 1);
  job.Set(api::conf::kPlaceCrashAt, "1:1");
  job.Set("m3r.fault.m3r.reduce.prob", "1");
  api::JobResult r = m3r.Submit(job);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.metrics.at("place_crashes"), 1);
  EXPECT_EQ(r.metrics.at("recovered_map_tasks"), 1);
  EXPECT_EQ(r.sim_seconds, 0);
  EXPECT_TRUE(r.time_breakdown.empty());
}

}  // namespace
}  // namespace m3r::engine

#include <gtest/gtest.h>

#include "api/sequence_file.h"
#include "dfs/local_fs.h"
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

}  // namespace
}  // namespace m3r::engine

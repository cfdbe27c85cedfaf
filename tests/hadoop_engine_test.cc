#include <gtest/gtest.h>

#include <cmath>

#include "api/sequence_file.h"
#include "dfs/local_fs.h"
#include "exit_paths.h"
#include "hadoop/hadoop_engine.h"
#include "hadoop/merge.h"
#include "hadoop/spill.h"
#include "serialize/basic_writables.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::hadoop {
namespace {

using serialize::IntWritable;
using serialize::SerializeToString;
using serialize::Text;

sim::ClusterSpec SmallCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 3;
  spec.slots_per_node = 2;
  return spec;
}

TEST(SegmentTest, WriterReaderRoundTrip) {
  SegmentWriter w;
  w.Add("k1", "v1");
  w.Add("k22", "v22");
  std::string bytes = w.Take();
  SegmentReader r(&bytes);
  std::string_view k;
  std::string_view v;
  ASSERT_TRUE(r.Next(&k, &v));
  EXPECT_EQ(k, "k1");
  ASSERT_TRUE(r.Next(&k, &v));
  EXPECT_EQ(v, "v22");
  EXPECT_FALSE(r.Next(&k, &v));
}

TEST(MergeTest, KWayMergeSortsAcrossSegments) {
  auto cmp = std::make_shared<const serialize::BytesComparator>();
  SegmentWriter a;
  a.Add("a", "1");
  a.Add("c", "3");
  SegmentWriter b;
  b.Add("b", "2");
  b.Add("d", "4");
  SegmentWriter c;  // empty
  std::string sa = a.Take();
  std::string sb = b.Take();
  std::string sc = c.Take();
  uint64_t records = 0;
  std::string merged = MergeSegments({&sa, &sb, &sc}, cmp, &records);
  EXPECT_EQ(records, 4u);
  SegmentReader r(&merged);
  std::string order;
  std::string_view k, v;
  while (r.Next(&k, &v)) order += std::string(k);
  EXPECT_EQ(order, "abcd");
}

TEST(MergeTest, StableForEqualKeys) {
  auto cmp = std::make_shared<const serialize::BytesComparator>();
  SegmentWriter a;
  a.Add("k", "first");
  SegmentWriter b;
  b.Add("k", "second");
  std::string sa = a.Take();
  std::string sb = b.Take();
  std::string merged = MergeSegments({&sa, &sb}, cmp, nullptr);
  SegmentReader r(&merged);
  std::string_view k, v;
  ASSERT_TRUE(r.Next(&k, &v));
  EXPECT_EQ(v, "first");
  ASSERT_TRUE(r.Next(&k, &v));
  EXPECT_EQ(v, "second");
}

TEST(MapOutputBufferTest, SpillsWhenBufferFull) {
  api::JobConf conf;
  conf.SetOutputKeyClass(Text::kTypeName);
  conf.SetOutputValueClass(IntWritable::kTypeName);
  conf.SetInt(kSortBufferBytesKey, 64);  // tiny buffer -> many spills
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  MapOutputBuffer buffer(conf, 2, &reporter);
  for (int i = 0; i < 50; ++i) {
    buffer.Collect(std::make_shared<Text>("key" + std::to_string(i % 10)),
                   std::make_shared<IntWritable>(i));
  }
  buffer.Flush();
  EXPECT_GT(buffer.spills().size(), 1u);
  EXPECT_EQ(buffer.total_records(), 50u);
  EXPECT_EQ(buffer.spilled_records(), 50u);
  // Each spill's per-partition segments are sorted.
  auto cmp = api::SortComparator(conf);
  for (const Spill& spill : buffer.spills()) {
    for (const std::string& segment : spill.partition_segments) {
      SegmentReader r(&segment);
      std::string_view k, v;
      std::string prev;
      while (r.Next(&k, &v)) {
        if (!prev.empty()) {
          EXPECT_LE(cmp->Compare(prev, k), 0);
        }
        prev = std::string(k);
      }
    }
  }
}

TEST(MapOutputBufferTest, CombinerShrinksSpills) {
  api::JobConf conf;
  conf.SetOutputKeyClass(Text::kTypeName);
  conf.SetOutputValueClass(IntWritable::kTypeName);
  conf.SetCombinerClass(workloads::WordCountReducer::kClassName);
  api::Counters counters;
  api::CountersReporter reporter(&counters);
  MapOutputBuffer buffer(conf, 1, &reporter);
  for (int i = 0; i < 100; ++i) {
    buffer.Collect(std::make_shared<Text>("same"),
                   std::make_shared<IntWritable>(1));
  }
  buffer.Flush();
  ASSERT_EQ(buffer.spills().size(), 1u);
  EXPECT_EQ(buffer.spills()[0].records, 1u);  // combined to a single pair
  EXPECT_EQ(counters.Get(api::counters::kTaskGroup,
                         api::counters::kCombineInputRecords),
            100);
}

TEST(HadoopEngineTest, FailsOnExistingOutput) {
  auto fs = dfs::MakeSimDfs(3);
  ASSERT_TRUE(fs->Mkdirs("/out").ok());
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 10 * 1024, 1, 1).ok());
  HadoopEngine engine(fs, {SmallCluster(), 0});
  auto result =
      engine.Submit(workloads::MakeWordCountJob("/in", "/out", 2, true));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status.IsAlreadyExists());
}

TEST(HadoopEngineTest, SimTimeIncludesPerTaskOverheads) {
  auto fs = dfs::MakeSimDfs(3, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 2, 5).ok());
  sim::ClusterSpec spec = SmallCluster();
  HadoopEngine engine(fs, {spec, 0});
  auto result =
      engine.Submit(workloads::MakeWordCountJob("/in", "/out", 2, true));
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  // At minimum: submit + one JVM start wave + commit.
  EXPECT_GT(result.sim_seconds,
            spec.job_submit_overhead_s + spec.task_jvm_start_s +
                spec.job_commit_overhead_s);
  EXPECT_GT(result.time_breakdown.at("map_phase"), 0.0);
  EXPECT_GT(result.time_breakdown.at("reduce_phase"), 0.0);
  EXPECT_GT(result.metrics.at("shuffle_bytes"), 0);
  EXPECT_GT(result.metrics.at("hdfs_read_bytes"), 0);
  EXPECT_GT(result.metrics.at("hdfs_write_bytes"), 0);
}

TEST(HadoopEngineTest, MapOnlyJobWritesMapOutputDirectly) {
  auto fs = dfs::MakeSimDfs(3, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 16 * 1024, 2, 5).ok());
  HadoopEngine engine(fs, {SmallCluster(), 0});
  api::JobConf job;
  job.SetJobName("maponly");
  job.AddInputPath("/in");
  job.SetOutputPath("/out");
  job.SetMapperClass(api::mapred::IdentityMapper::kClassName);
  job.SetNumReduceTasks(0);
  auto result = engine.Submit(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
  auto listing = fs->ListStatus("/out");
  ASSERT_TRUE(listing.ok());
  int parts = 0;
  for (const auto& f : *listing) {
    if (f.path.find("part-") != std::string::npos) ++parts;
  }
  EXPECT_GE(parts, 2);  // one per map task
  EXPECT_EQ(result.metrics.count("reduce_tasks"), 0u);
}

TEST(HadoopEngineTest, EveryJobPaysStartupAgain) {
  // The Hadoop engine keeps nothing between jobs: running the same job
  // twice costs the same simulated time both times — the contrast with
  // M3R's cache (paper §3.1).
  auto fs = dfs::MakeSimDfs(3, 8 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 2, 5).ok());
  HadoopEngine engine(fs, {SmallCluster(), 0});
  auto r1 = engine.Submit(workloads::MakeWordCountJob("/in", "/o1", 2, true));
  auto r2 = engine.Submit(workloads::MakeWordCountJob("/in", "/o2", 2, true));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
  EXPECT_EQ(r1.metrics.at("hdfs_read_bytes"),
            r2.metrics.at("hdfs_read_bytes"));
}

/// DESIGN.md §6: the per-phase breakdown sums to sim_seconds on every exit,
/// and a failure, which charges no simulated time, reports none.
TEST(HadoopEngineTest, TimeBreakdownSumsToSimSecondsOnEveryExit) {
  for (const exit_paths::HadoopExitCase& c : exit_paths::kHadoopExitCases) {
    api::JobResult r = exit_paths::RunHadoopExit(c.exit);
    ASSERT_EQ(r.ok(), c.ok) << c.name << ": " << r.status.ToString();
    double sum = 0;
    for (const auto& [phase, seconds] : r.time_breakdown) sum += seconds;
    EXPECT_LE(std::fabs(sum - r.sim_seconds), 1e-9)
        << c.name << ": breakdown " << sum << " vs sim " << r.sim_seconds;
    EXPECT_EQ(r.sim_seconds > 0, c.ok) << c.name;
    EXPECT_EQ(exit_paths::PhaseKeys(r), c.phases) << c.name;
  }
}

}  // namespace
}  // namespace m3r::hadoop

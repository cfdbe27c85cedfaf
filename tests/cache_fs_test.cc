// Focused tests of the cache, the intercepting file system, and the
// simulated jobtracker dispatch — substrate behaviours the engine-level
// tests exercise only indirectly.
#include <gtest/gtest.h>

#include "dfs/local_fs.h"
#include "m3r/cache.h"
#include "m3r/cache_fs.h"
#include "m3r/m3r_engine.h"
#include "serialize/basic_writables.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::engine {
namespace {

using serialize::IntWritable;
using serialize::Text;

kvstore::KVSeq MakeSeq(int n) {
  kvstore::KVSeq seq;
  for (int i = 0; i < n; ++i) {
    seq.emplace_back(std::make_shared<IntWritable>(i),
                     std::make_shared<Text>("v" + std::to_string(i)));
  }
  return seq;
}

TEST(CacheTest, PutGetBlocksAndBytes) {
  Cache cache(4);
  ASSERT_TRUE(cache.PutBlock("/f", "0", 1, MakeSeq(3), 100).ok());
  ASSERT_TRUE(cache.PutBlock("/f", "4096", 2, MakeSeq(2), 50).ok());
  EXPECT_TRUE(cache.ContainsFile("/f"));
  EXPECT_EQ(cache.FileBytes("/f"), 150u);
  EXPECT_EQ(cache.TotalPairs(), 5u);
  EXPECT_EQ(cache.TotalBytes(), 150u);
  auto block = cache.GetBlock("/f", "4096");
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->info.place, 2);
  EXPECT_EQ(block->pairs->size(), 2u);
  EXPECT_FALSE(cache.GetBlock("/f", "999").has_value());

  ASSERT_TRUE(cache.Delete("/f").ok());
  EXPECT_FALSE(cache.ContainsFile("/f"));
  EXPECT_EQ(cache.TotalBytes(), 0u);
}

TEST(CacheTest, FilesUnderDirectory) {
  Cache cache(2);
  ASSERT_TRUE(cache.PutBlock("/d/a", "0", 0, MakeSeq(1), 10).ok());
  ASSERT_TRUE(cache.PutBlock("/d/b", "0", 1, MakeSeq(1), 10).ok());
  ASSERT_TRUE(cache.PutBlock("/other/c", "0", 0, MakeSeq(1), 10).ok());
  auto files = cache.FilesUnder("/d");
  EXPECT_EQ(files.size(), 2u);
}

TEST(CacheTest, TemporaryNamingRules) {
  api::JobConf conf;
  EXPECT_TRUE(Cache::IsTemporary(conf, "/a/temp-x"));
  EXPECT_TRUE(Cache::IsTemporary(conf, "/a/temporary"));
  EXPECT_FALSE(Cache::IsTemporary(conf, "/a/x-temp"));
  EXPECT_FALSE(Cache::IsTemporary(conf, "/temp-dir/final"));  // basename only
  conf.Set(api::conf::kTempPrefix, "scratch");
  EXPECT_TRUE(Cache::IsTemporary(conf, "/a/scratch1"));
  EXPECT_FALSE(Cache::IsTemporary(conf, "/a/temp-x"));  // prefix replaced
  conf.Set(api::conf::kTempPaths, "/exact/one,/exact/two");
  EXPECT_TRUE(Cache::IsTemporary(conf, "/exact/one"));
  EXPECT_FALSE(Cache::IsTemporary(conf, "/exact/one/child"));
}

TEST(CacheTest, EvictKeepsManifestDeleteForgetsIt) {
  Cache cache(2);
  ASSERT_TRUE(cache.PutBlock("/temp-out/part-00000", "0", 0, MakeSeq(2), 20)
                  .ok());
  ASSERT_TRUE(cache.PutBlock("/temp-out/part-00001", "0", 1, MakeSeq(2), 30)
                  .ok());
  cache.RecordManifest("/temp-out");
  EXPECT_TRUE(cache.ManifestMissing("/temp-out").empty());

  // Eviction is a residency change, not a deletion: the directory manifest
  // survives so a later reader can notice the gap and heal it from the
  // checkpoint spill.
  ASSERT_TRUE(cache.Evict("/temp-out/part-00000").ok());
  auto missing = cache.ManifestMissing("/temp-out");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_NE(missing[0].find("part-00000"), std::string::npos);

  // An explicit Delete means the data is gone on purpose: the file leaves
  // the manifest and consumers must not fail over it.
  ASSERT_TRUE(cache.Delete("/temp-out/part-00001").ok());
  EXPECT_EQ(cache.ManifestMissing("/temp-out").size(), 1u);  // still 00000
  ASSERT_TRUE(cache.Delete("/temp-out").ok());
  EXPECT_TRUE(cache.ManifestMissing("/temp-out").empty());
}

TEST(M3RFileSystemTest, UnionViewSynthesizesCacheOnlyEntries) {
  auto base = dfs::MakeLocalFs();
  Cache cache(4);
  M3RFileSystem fs(base, &cache);

  ASSERT_TRUE(base->WriteFile("/real/file", "bytes").ok());
  ASSERT_TRUE(cache.PutBlock("/ghost/data", "0", 3, MakeSeq(4), 777).ok());

  // Exists: both layers.
  EXPECT_TRUE(fs.Exists("/real/file"));
  EXPECT_TRUE(fs.Exists("/ghost/data"));
  // Status: synthetic length and directory flags for cache-only paths.
  auto st = fs.GetFileStatus("/ghost/data");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->length, 777u);
  auto dir = fs.GetFileStatus("/ghost");
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dir->is_directory);
  // Block locations name the owning place as the node.
  auto locs = fs.GetBlockLocations("/ghost/data");
  ASSERT_TRUE(locs.ok());
  ASSERT_EQ(locs->size(), 1u);
  EXPECT_EQ((*locs)[0].nodes, std::vector<int>{3});
  // Open falls through to the base (cache has pairs, not bytes).
  EXPECT_FALSE(fs.Open("/ghost/data").ok());
  EXPECT_TRUE(fs.Open("/real/file").ok());
}

TEST(M3RFileSystemTest, RawCacheRejectsByteLevelIo) {
  auto base = dfs::MakeLocalFs();
  Cache cache(2);
  M3RFileSystem fs(base, &cache);
  auto raw = fs.GetRawCache();
  EXPECT_EQ(raw->Create("/x", {}).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(raw->Open("/x").status().code(), StatusCode::kUnimplemented);
}

TEST(M3RFileSystemTest, CreateInvalidatesStaleCachedPairs) {
  auto base = dfs::MakeLocalFs();
  Cache cache(2);
  M3RFileSystem fs(base, &cache);
  ASSERT_TRUE(cache.PutBlock("/f", "0", 0, MakeSeq(2), 20).ok());
  // A byte-level overwrite through the intercepting FS must drop the
  // now-stale cached pairs.
  ASSERT_TRUE(fs.WriteFile("/f", "new bytes").ok());
  EXPECT_FALSE(cache.ContainsFile("/f"));
  EXPECT_TRUE(base->Exists("/f"));
}

TEST(M3REngineMemoryTest, ExplicitDeleteReleasesCacheMemory) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 3).ok());
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  M3REngine engine(fs, {spec});
  ASSERT_TRUE(
      engine.Submit(workloads::MakeWordCountJob("/in", "/temp-a", 2, true))
          .ok());
  uint64_t before = engine.cache().TotalBytes();
  EXPECT_GT(before, 0u);
  // The §6.1 hygiene step: drop data that will not be read again.
  ASSERT_TRUE(engine.Fs()->Delete("/temp-a", true).ok());
  ASSERT_TRUE(engine.Fs()->Delete("/in", true).ok());
  EXPECT_EQ(engine.cache().TotalBytes(), 0u);
}

}  // namespace
}  // namespace m3r::engine

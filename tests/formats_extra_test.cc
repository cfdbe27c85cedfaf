#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include "api/kv_text_format.h"
#include "api/sequence_file.h"
#include "dfs/local_fs.h"
#include "dfs/sim_dfs.h"
#include "serialize/extra_writables.h"
#include "serialize/io.h"

namespace m3r {
namespace {

using serialize::ArrayWritable;
using serialize::DeserializeFromString;
using serialize::FloatWritable;
using serialize::IntWritable;
using serialize::MapWritable;
using serialize::SerializeToString;
using serialize::Text;
using serialize::VLongWritable;

TEST(ExtraWritablesTest, FloatRoundTripAndOrder) {
  FloatWritable a(-1.5f);
  auto b = std::static_pointer_cast<FloatWritable>(a.Clone());
  EXPECT_EQ(b->Get(), -1.5f);
  FloatWritable c(2.0f);
  EXPECT_LT(a.CompareTo(c), 0);
}

TEST(ExtraWritablesTest, VLongCompactness) {
  VLongWritable small(5);
  VLongWritable large(1ll << 40);
  EXPECT_EQ(SerializeToString(small).size(), 1u);
  EXPECT_GT(SerializeToString(large).size(), 4u);
  auto back = std::static_pointer_cast<VLongWritable>(large.Clone());
  EXPECT_EQ(back->Get(), 1ll << 40);
  VLongWritable negative(-12345);
  auto nb = std::static_pointer_cast<VLongWritable>(negative.Clone());
  EXPECT_EQ(nb->Get(), -12345);
}

TEST(ExtraWritablesTest, ArrayWritableRoundTrip) {
  ArrayWritable arr(IntWritable::kTypeName);
  for (int i = 0; i < 5; ++i) arr.Add(std::make_shared<IntWritable>(i * i));
  std::string bytes = SerializeToString(arr);
  ArrayWritable back;
  DeserializeFromString(bytes, &back);
  ASSERT_EQ(back.Get().size(), 5u);
  EXPECT_EQ(static_cast<IntWritable&>(*back.Get()[3]).Get(), 9);
  EXPECT_EQ(back.ElementType(), IntWritable::kTypeName);
}

TEST(ExtraWritablesTest, MapWritableHeterogeneousValues) {
  MapWritable map;
  map.Put("count", std::make_shared<IntWritable>(7));
  map.Put("name", std::make_shared<Text>("m3r"));
  std::string bytes = SerializeToString(map);
  MapWritable back;
  DeserializeFromString(bytes, &back);
  ASSERT_EQ(back.Size(), 2u);
  EXPECT_EQ(static_cast<IntWritable&>(*back.GetValue("count")).Get(), 7);
  EXPECT_EQ(static_cast<Text&>(*back.GetValue("name")).Get(), "m3r");
  EXPECT_EQ(back.GetValue("missing"), nullptr);
}

TEST(KeyValueTextFormatTest, SplitsAtFirstSeparator) {
  auto fs = dfs::MakeLocalFs();
  ASSERT_TRUE(
      fs->WriteFile("/kv.txt", "alpha\t1\nbeta\t2\twith\ttabs\nnosep\n")
          .ok());
  api::JobConf conf;
  conf.AddInputPath("/kv.txt");
  api::KeyValueTextInputFormat format;
  auto splits = format.GetSplits(conf, *fs, 1);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 1u);
  auto reader = format.GetRecordReader(*(*splits)[0], conf, *fs);
  ASSERT_TRUE(reader.ok());

  auto key = (*reader)->CreateKey();
  auto value = (*reader)->CreateValue();
  ASSERT_TRUE((*reader)->Next(*key, *value));
  EXPECT_EQ(key->ToString(), "alpha");
  EXPECT_EQ(value->ToString(), "1");
  ASSERT_TRUE((*reader)->Next(*key, *value));
  EXPECT_EQ(key->ToString(), "beta");
  EXPECT_EQ(value->ToString(), "2\twith\ttabs");  // first separator only
  ASSERT_TRUE((*reader)->Next(*key, *value));
  EXPECT_EQ(key->ToString(), "nosep");
  EXPECT_EQ(value->ToString(), "");
  EXPECT_FALSE((*reader)->Next(*key, *value));
}

TEST(KeyValueTextFormatTest, CustomSeparator) {
  auto fs = dfs::MakeLocalFs();
  ASSERT_TRUE(fs->WriteFile("/kv.csv", "a,1\nb,2\n").ok());
  api::JobConf conf;
  conf.AddInputPath("/kv.csv");
  conf.Set(api::KeyValueTextInputFormat::kSeparatorKey, ",");
  api::KeyValueTextInputFormat format;
  auto splits = format.GetSplits(conf, *fs, 1);
  ASSERT_TRUE(splits.ok());
  auto reader = format.GetRecordReader(*(*splits)[0], conf, *fs);
  ASSERT_TRUE(reader.ok());
  auto key = (*reader)->CreateKey();
  auto value = (*reader)->CreateValue();
  ASSERT_TRUE((*reader)->Next(*key, *value));
  EXPECT_EQ(key->ToString(), "a");
  EXPECT_EQ(value->ToString(), "1");
}

/// Sync-marker splitting: a multi-chunk sequence file split at arbitrary
/// byte boundaries yields every record exactly once, no matter how the
/// boundaries fall — the Hadoop splittability contract.
class SeqFileSplitTest : public ::testing::TestWithParam<int> {};

TEST_P(SeqFileSplitTest, EveryRecordExactlyOnce) {
  int num_splits = GetParam();
  auto fs = dfs::MakeLocalFs();
  constexpr int kRecords = 2000;
  {
    auto w = fs->Create("/big.seq", {});
    ASSERT_TRUE(w.ok());
    api::SequenceFileWriter writer(w.take(), IntWritable::kTypeName,
                                   Text::kTypeName);
    for (int i = 0; i < kRecords; ++i) {
      IntWritable k(i);
      Text v("value-" + std::to_string(i) + std::string(20, 'x'));
      ASSERT_TRUE(writer.Append(k, v).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  auto st = fs->GetFileStatus("/big.seq");
  ASSERT_TRUE(st.ok());
  uint64_t size = st->length;
  ASSERT_GT(size, api::seqfile::kChunkBytes * 4);  // multi-chunk

  api::SequenceFileInputFormat format;
  api::JobConf conf;
  std::multiset<int> seen;
  uint64_t offset = 0;
  uint64_t chunk = size / static_cast<uint64_t>(num_splits);
  for (int s = 0; s < num_splits; ++s) {
    uint64_t len = s == num_splits - 1 ? size - offset : chunk;
    api::FileSplit split("/big.seq", offset, len, {});
    auto reader = format.GetRecordReader(split, conf, *fs);
    ASSERT_TRUE(reader.ok());
    auto key = (*reader)->CreateKey();
    auto value = (*reader)->CreateValue();
    while ((*reader)->Next(*key, *value)) {
      seen.insert(static_cast<IntWritable&>(*key).Get());
    }
    offset += len;
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(seen.count(i), 1u) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SplitCounts, SeqFileSplitTest,
                         ::testing::Values(1, 2, 3, 7, 16, 61));

/// The writer frames each chunk as a header plus the chunk's own buffer,
/// handed to the DFS writer by move. The file layout must not change: for
/// this fixed input the size, the chunk count and the record count are the
/// numbers the copy-framing writer produced, and the file reads back.
TEST(SequenceFileLayoutTest, FixedInputKeepsSizeChunksAndRecords) {
  constexpr int kRecords = 1500;
  auto write = [](dfs::FileSystem& fs) {
    auto w = fs.Create("/fixed.seq", {});
    ASSERT_TRUE(w.ok());
    api::SequenceFileWriter writer(w.take(), IntWritable::kTypeName,
                                   Text::kTypeName);
    for (int i = 0; i < kRecords; ++i) {
      IntWritable k(i);
      Text v("value-" + std::to_string(i) + std::string(i % 97, 'x'));
      ASSERT_TRUE(writer.Append(k, v).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.BytesWritten(), 92698u);
  };
  // LocalFs (one block) and a many-block SimDfs share the writer.
  for (auto fs : {dfs::MakeLocalFs(), dfs::MakeSimDfs(3, 4096)}) {
    write(*fs);
    auto content = fs->ReadFile("/fixed.seq");
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(content->size(), 92698u);

    // Walk the frames: header, then (sync, records, bytes, payload)*.
    serialize::DataInput in{std::string_view(*content)};
    std::string magic;
    for (size_t i = 0; i < std::strlen(api::seqfile::kMagic); ++i) {
      magic.push_back(static_cast<char>(in.ReadByte()));
    }
    EXPECT_EQ(magic, api::seqfile::kMagic);
    EXPECT_EQ(in.ReadStringView(), IntWritable::kTypeName);
    EXPECT_EQ(in.ReadStringView(), Text::kTypeName);
    std::string sync;
    for (size_t i = 0; i < api::seqfile::kSyncSize; ++i) {
      sync.push_back(static_cast<char>(in.ReadByte()));
    }
    uint64_t chunks = 0;
    uint64_t records = 0;
    while (!in.AtEnd()) {
      std::string frame_sync;
      for (size_t i = 0; i < api::seqfile::kSyncSize; ++i) {
        frame_sync.push_back(static_cast<char>(in.ReadByte()));
      }
      EXPECT_EQ(frame_sync, sync) << "chunk " << chunks;
      records += in.ReadVarU64();
      const uint64_t bytes = in.ReadVarU64();
      for (uint64_t i = 0; i < bytes; ++i) in.ReadByte();
      ++chunks;
    }
    EXPECT_EQ(chunks, 23u);
    EXPECT_EQ(records, static_cast<uint64_t>(kRecords));

    auto pairs = api::ReadSequenceFile(*fs, "/fixed.seq");
    ASSERT_TRUE(pairs.ok());
    ASSERT_EQ(pairs->size(), static_cast<size_t>(kRecords));
    for (int i = 0; i < kRecords; ++i) {
      EXPECT_EQ(static_cast<IntWritable&>(*(*pairs)[i].first).Get(), i);
      EXPECT_EQ(static_cast<Text&>(*(*pairs)[i].second).Get(),
                "value-" + std::to_string(i) + std::string(i % 97, 'x'));
    }
  }
}

}  // namespace
}  // namespace m3r

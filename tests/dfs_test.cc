#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "dfs/local_fs.h"
#include "dfs/sim_dfs.h"

namespace m3r::dfs {
namespace {

TEST(SimDfsTest, WriteReadRoundTrip) {
  SimDfs fs(4, 3, 1024);
  ASSERT_TRUE(fs.WriteFile("/a/b/file", "hello").ok());
  auto content = fs.ReadFile("/a/b/file");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  EXPECT_TRUE(fs.Exists("/a"));
  EXPECT_TRUE(fs.Exists("/a/b"));
  auto st = fs.GetFileStatus("/a/b/file");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_directory);
  EXPECT_EQ(st->length, 5u);
}

TEST(SimDfsTest, OverwritePolicy) {
  SimDfs fs(2, 1, 1024);
  ASSERT_TRUE(fs.WriteFile("/f", "one").ok());
  CreateOptions no_overwrite;
  no_overwrite.overwrite = false;
  EXPECT_TRUE(fs.WriteFile("/f", "two", no_overwrite).IsAlreadyExists());
  ASSERT_TRUE(fs.WriteFile("/f", "three").ok());
  EXPECT_EQ(*fs.ReadFile("/f"), "three");
}

TEST(SimDfsTest, BlocksAndReplication) {
  SimDfs fs(5, 3, 10);
  std::string data(35, 'x');
  CreateOptions opts;
  opts.preferred_node = 2;
  ASSERT_TRUE(fs.WriteFile("/blocks", data, opts).ok());
  auto locs = fs.GetBlockLocations("/blocks");
  ASSERT_TRUE(locs.ok());
  ASSERT_EQ(locs->size(), 4u);  // ceil(35/10)
  uint64_t covered = 0;
  for (const auto& b : *locs) {
    EXPECT_EQ(b.nodes.size(), 3u);  // replication
    EXPECT_EQ(b.nodes[0], 2);       // first replica on the writer's node
    // Replicas must be distinct nodes.
    EXPECT_NE(b.nodes[0], b.nodes[1]);
    EXPECT_NE(b.nodes[1], b.nodes[2]);
    EXPECT_NE(b.nodes[0], b.nodes[2]);
    covered += b.length;
  }
  EXPECT_EQ(covered, data.size());
}

// Concurrent reduce writers commit in host-thread order, so placement must
// follow the file alone, or the next job's split locality (and Hadoop's
// sim) moves from run to run.
TEST(SimDfsTest, PlacementDoesNotDependOnCommitOrder) {
  const std::vector<std::string> paths = {"/out/part-00000", "/out/part-00001",
                                          "/out/part-00002", "/in/big"};
  auto locations = [&](const std::vector<size_t>& order) {
    SimDfs fs(7, 3, 10);
    for (size_t i : order) {
      EXPECT_TRUE(fs.WriteFile(paths[i], std::string(25 + 10 * i, 'x')).ok());
    }
    std::vector<std::vector<int>> nodes;
    for (const std::string& p : paths) {
      auto locs = fs.GetBlockLocations(p);
      EXPECT_TRUE(locs.ok()) << p;
      for (const BlockLocation& b : *locs) nodes.push_back(b.nodes);
    }
    return nodes;
  };
  std::vector<std::vector<int>> forward = locations({0, 1, 2, 3});
  EXPECT_EQ(forward.size(), 3u + 4u + 5u + 6u);
  EXPECT_EQ(forward, locations({3, 2, 1, 0}));
  EXPECT_EQ(forward, locations({2, 0, 3, 1}));
}

TEST(SimDfsTest, ReplicationCappedByNodeCount) {
  SimDfs fs(2, 3, 1024);
  ASSERT_TRUE(fs.WriteFile("/f", "abc").ok());
  auto locs = fs.GetBlockLocations("/f");
  ASSERT_TRUE(locs.ok());
  EXPECT_EQ((*locs)[0].nodes.size(), 2u);
}

TEST(SimDfsTest, ListStatusDirectChildrenOnly) {
  SimDfs fs(2, 1, 1024);
  ASSERT_TRUE(fs.WriteFile("/d/one", "1").ok());
  ASSERT_TRUE(fs.WriteFile("/d/two", "2").ok());
  ASSERT_TRUE(fs.WriteFile("/d/sub/three", "3").ok());
  auto list = fs.ListStatus("/d");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);  // one, two, sub — not sub/three
  EXPECT_EQ((*list)[0].path, "/d/one");
  EXPECT_TRUE((*list)[1].is_directory);  // /d/sub
  EXPECT_EQ((*list)[2].path, "/d/two");
}

TEST(SimDfsTest, DeleteSemantics) {
  SimDfs fs(2, 1, 1024);
  ASSERT_TRUE(fs.WriteFile("/d/x", "x").ok());
  EXPECT_FALSE(fs.Delete("/d", false).ok());  // non-empty, non-recursive
  EXPECT_TRUE(fs.Delete("/d", true).ok());
  EXPECT_FALSE(fs.Exists("/d"));
  EXPECT_FALSE(fs.Exists("/d/x"));
  EXPECT_TRUE(fs.Delete("/missing", true).IsNotFound());
}

TEST(SimDfsTest, RenameMovesSubtrees) {
  SimDfs fs(2, 1, 1024);
  ASSERT_TRUE(fs.WriteFile("/src/a", "A").ok());
  ASSERT_TRUE(fs.WriteFile("/src/deep/b", "B").ok());
  ASSERT_TRUE(fs.Rename("/src", "/dst").ok());
  EXPECT_FALSE(fs.Exists("/src"));
  EXPECT_EQ(*fs.ReadFile("/dst/a"), "A");
  EXPECT_EQ(*fs.ReadFile("/dst/deep/b"), "B");
  // Renaming into one's own subtree is rejected.
  EXPECT_FALSE(fs.Rename("/dst", "/dst/deep/new").ok());
  // Renaming over an existing path is rejected.
  ASSERT_TRUE(fs.WriteFile("/other", "o").ok());
  EXPECT_TRUE(fs.Rename("/other", "/dst").IsAlreadyExists());
}

TEST(SimDfsTest, MkdirsAndConflicts) {
  SimDfs fs(2, 1, 1024);
  EXPECT_TRUE(fs.Mkdirs("/x/y/z").ok());
  EXPECT_TRUE(fs.Exists("/x/y"));
  ASSERT_TRUE(fs.WriteFile("/file", "f").ok());
  EXPECT_FALSE(fs.Mkdirs("/file/sub").ok());  // parent is a file
}

TEST(SimDfsTest, WriterVisibilityAtClose) {
  SimDfs fs(2, 1, 1024);
  auto writer = fs.Create("/w", {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("abc").ok());
  EXPECT_FALSE(fs.ReadFile("/w").ok());  // not visible yet
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(*fs.ReadFile("/w"), "abc");
}

TEST(SimDfsTest, OwnedAndViewedAppendsConcatenate) {
  SimDfs fs(2, 1, 16);
  auto writer = fs.Create("/mixed", {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("head|").ok());
  ASSERT_TRUE((*writer)->AppendOwned(std::string(40, 'o')).ok());
  ASSERT_TRUE((*writer)->Append("mid|").ok());
  ASSERT_TRUE((*writer)->AppendOwned("owned|").ok());
  ASSERT_TRUE((*writer)->AppendOwned(std::string()).ok());
  ASSERT_TRUE((*writer)->Append("tail").ok());
  const std::string expected =
      "head|" + std::string(40, 'o') + "mid|" + "owned|" + "tail";
  EXPECT_EQ((*writer)->BytesWritten(), expected.size());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(*fs.ReadFile("/mixed"), expected);
  // Block checksums cover the assembled file, not the parts.
  auto locs = fs.GetBlockLocations("/mixed");
  ASSERT_TRUE(locs.ok());
  EXPECT_EQ(locs->size(), (expected.size() + 15) / 16);
  EXPECT_TRUE((*writer)->AppendOwned("late").IsFailedPrecondition());
}

TEST(SimDfsTest, OneBufferFileIsCommittedWithoutACopy) {
  // An owned buffer that later line appends extend in place stays the
  // file's one part, and Close hands that very buffer to the namespace.
  SimDfs fs(2, 1, 1024);
  auto writer = fs.Create("/lines", {});
  ASSERT_TRUE(writer.ok());
  std::string buffer;
  buffer.reserve(4096);
  buffer = "header\n";
  const char* data = buffer.data();
  ASSERT_TRUE((*writer)->AppendOwned(std::move(buffer)).ok());
  std::string expected = "header\n";
  for (int i = 0; i < 100; ++i) {
    const std::string line = "line " + std::to_string(i) + "\n";
    ASSERT_TRUE((*writer)->Append(line).ok());
    expected += line;
  }
  EXPECT_EQ((*writer)->BytesWritten(), expected.size());
  ASSERT_TRUE((*writer)->Close().ok());
  auto content = fs.Open("/lines");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(**content, expected);
  EXPECT_EQ((*content)->data(), data);

  // Only per-line appends: the same one growing buffer, same content.
  auto plain = fs.Create("/plain", {});
  ASSERT_TRUE(plain.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*plain)->Append("line " + std::to_string(i) + "\n").ok());
  }
  ASSERT_TRUE((*plain)->Close().ok());
  EXPECT_EQ(*fs.ReadFile("/plain"), expected.substr(7));
}

/// A decorator that forwards only Append, like a tracing wrapper.
class AppendOnlyWriter : public FileWriter {
 public:
  Status Append(std::string_view data) override {
    content_.append(data);
    ++appends_;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t BytesWritten() const override { return content_.size(); }
  const std::string& content() const { return content_; }
  int appends() const { return appends_; }

 private:
  std::string content_;
  int appends_ = 0;
};

TEST(FileWriterTest, DefaultAppendOwnedCopiesThroughAppend) {
  AppendOnlyWriter writer;
  ASSERT_TRUE(writer.Append("a").ok());
  ASSERT_TRUE(writer.AppendOwned("bc").ok());
  ASSERT_TRUE(writer.AppendOwned(std::string(3, 'd')).ok());
  EXPECT_EQ(writer.content(), "abcddd");
  EXPECT_EQ(writer.appends(), 3);
  EXPECT_EQ(writer.BytesWritten(), 6u);
}

TEST(LocalFsTest, SingleNodeSingleBlock) {
  auto fs = MakeLocalFs();
  std::string big(1 << 20, 'q');
  ASSERT_TRUE(fs->WriteFile("/big", big).ok());
  auto locs = fs->GetBlockLocations("/big");
  ASSERT_TRUE(locs.ok());
  EXPECT_EQ(locs->size(), 1u);
  EXPECT_EQ((*locs)[0].nodes.size(), 1u);
}

}  // namespace
}  // namespace m3r::dfs

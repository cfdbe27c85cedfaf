#ifndef M3R_DFS_SIM_DFS_H_
#define M3R_DFS_SIM_DFS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dfs/file_system.h"

namespace m3r::dfs {

/// In-memory simulation of HDFS: a namenode metadata tree, files split into
/// fixed-size blocks, and replica placement across `num_nodes` datanodes
/// (first replica on the writing node, the rest on consecutive nodes from
/// a start hashed from the path and block index). Block
/// locations drive split locality in both engines, and replication factor
/// drives output-write cost in the simulated-time ledger.
class SimDfs : public FileSystem {
 public:
  SimDfs(int num_nodes, int replication, uint64_t block_size);

  Result<std::unique_ptr<FileWriter>> Create(
      const std::string& path, const CreateOptions& opts) override;
  Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<FileStatus> GetFileStatus(const std::string& path) override;
  Result<std::vector<FileStatus>> ListStatus(const std::string& dir) override;
  Status Mkdirs(const std::string& path) override;
  Status Delete(const std::string& path, bool recursive) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Result<std::vector<BlockLocation>> GetBlockLocations(
      const std::string& path) override;
  uint64_t BlockSize() const override { return block_size_; }

  int num_nodes() const { return num_nodes_; }
  int replication() const { return replication_; }

  /// Total bytes stored across all files (replication not multiplied).
  uint64_t TotalBytes() const;

 private:
  friend class SimDfsWriter;

  struct Inode {
    bool is_directory = false;
    std::shared_ptr<const std::string> content;  // files only
    std::vector<std::vector<int>> block_nodes;   // replica nodes per block
    std::vector<uint32_t> block_crcs;            // CRC32C per block
    int64_t mtime = 0;
  };

  /// Per-block CRC32Cs of a finished writer's buffer, charged to the
  /// installed integrity context. Called without the lock.
  std::vector<uint32_t> StampBlocks(const std::string& data);
  /// Commits a finished writer's buffer and its StampBlocks CRCs under
  /// `path`. Called with lock held by the writer's Close().
  void CommitLocked(const std::string& path, std::string data,
                    std::vector<uint32_t> block_crcs, int preferred_node);
  /// Ensures all ancestor directories of `path` exist (lock held).
  Status MkdirsLocked(const std::string& path);

  const int num_nodes_;
  const int replication_;
  const uint64_t block_size_;

  mutable std::mutex mu_;
  std::map<std::string, Inode> inodes_;  // canonical path -> inode
  int64_t mtime_counter_ = 0;
};

}  // namespace m3r::dfs

#endif  // M3R_DFS_SIM_DFS_H_

#include "dfs/sim_dfs.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/integrity.h"
#include "common/logging.h"
#include "common/path.h"

namespace m3r::dfs {

/// Buffers appends in memory and commits the full file on Close(). An
/// owned append is kept as its own part. A viewed append extends the last
/// part, so a file written line by line stays one growing buffer, except
/// that a handed-over buffer is never regrown: without room for the bytes,
/// they start a new part. Close() assembles the parts once, into an exactly
/// sized buffer (a one-part file is moved as is).
class SimDfsWriter : public FileWriter {
 public:
  SimDfsWriter(SimDfs* fs, std::string path, int preferred_node)
      : fs_(fs), path_(std::move(path)), preferred_node_(preferred_node) {}

  ~SimDfsWriter() override {
    if (!closed_) M3R_LOG(Warn) << "SimDfsWriter dropped unclosed: " << path_;
  }

  Status Append(std::string_view data) override {
    if (closed_) return Status::FailedPrecondition("writer closed: " + path_);
    if (parts_.empty() ||
        (last_owned_ && parts_.back().capacity() - parts_.back().size() <
                            data.size())) {
      parts_.emplace_back();
      last_owned_ = false;
    }
    parts_.back().append(data.data(), data.size());
    bytes_written_ += data.size();
    return Status::OK();
  }

  Status AppendOwned(std::string data) override {
    if (closed_) return Status::FailedPrecondition("writer closed: " + path_);
    bytes_written_ += data.size();
    parts_.push_back(std::move(data));
    last_owned_ = true;
    return Status::OK();
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    std::string content;
    if (parts_.size() == 1) {
      content = std::move(parts_.front());
    } else {
      content.reserve(bytes_written_);
      for (const std::string& part : parts_) content += part;
    }
    std::vector<std::string>().swap(parts_);
    // Checksum before taking the namespace lock: stamping is most of a
    // commit's CPU, and no other DFS call should wait behind it.
    std::vector<uint32_t> block_crcs = fs_->StampBlocks(content);
    std::lock_guard<std::mutex> lock(fs_->mu_);
    fs_->CommitLocked(path_, std::move(content), std::move(block_crcs),
                      preferred_node_);
    return Status::OK();
  }

  uint64_t BytesWritten() const override { return bytes_written_; }

 private:
  SimDfs* fs_;
  std::string path_;
  int preferred_node_;
  std::vector<std::string> parts_;
  bool last_owned_ = false;  // parts_.back() came from AppendOwned
  uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

SimDfs::SimDfs(int num_nodes, int replication, uint64_t block_size)
    : num_nodes_(num_nodes),
      replication_(std::min(replication, num_nodes)),
      block_size_(block_size) {
  M3R_CHECK(num_nodes > 0 && block_size > 0);
  inodes_["/"].is_directory = true;
}

Result<std::unique_ptr<FileWriter>> SimDfs::Create(const std::string& path,
                                                   const CreateOptions& opts) {
  std::string p = path::Canonicalize(path);
  M3R_RETURN_NOT_OK(CheckFault("dfs.write", p));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(p);
  if (it != inodes_.end()) {
    if (it->second.is_directory) {
      return Status::AlreadyExists("is a directory: " + p);
    }
    if (!opts.overwrite) return Status::AlreadyExists(p);
  }
  M3R_RETURN_NOT_OK(MkdirsLocked(path::Parent(p)));
  return std::unique_ptr<FileWriter>(
      new SimDfsWriter(this, p, opts.preferred_node));
}

std::vector<uint32_t> SimDfs::StampBlocks(const std::string& data) {
  // Per-block CRC32C, stamped unconditionally like HDFS datanode block
  // metadata (verification is what m3r.integrity.mode gates). The stamping
  // CPU is charged to the writing job only when a context is installed.
  uint64_t size = data.size();
  std::vector<uint32_t> block_crcs;
  block_crcs.reserve((size + block_size_ - 1) / block_size_);
  for (uint64_t off = 0; off < size; off += block_size_) {
    uint64_t len = std::min(block_size_, size - off);
    block_crcs.push_back(crc32c::Crc32c(data.data() + off, len));
  }
  auto ctx = integrity();
  if (ctx != nullptr && ctx->enabled()) {
    ctx->counters->bytes_checksummed.fetch_add(static_cast<int64_t>(size),
                                               std::memory_order_relaxed);
  }
  return block_crcs;
}

void SimDfs::CommitLocked(const std::string& path, std::string data,
                          std::vector<uint32_t> block_crcs,
                          int preferred_node) {
  Inode& node = inodes_[path];
  node.is_directory = false;
  uint64_t num_blocks = block_crcs.size();
  node.content = std::make_shared<const std::string>(std::move(data));
  node.block_nodes.clear();
  node.block_crcs = std::move(block_crcs);
  // Unpinned replicas walk the nodes from a start derived from the path and
  // the block index, so where a file lands does not depend on the order in
  // which concurrent writers commit.
  const uint64_t walk_start = crc32c::Crc32c(path);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint64_t walk = walk_start + b;
    std::vector<int> replicas;
    // Preferred nodes wrap: callers may pass a partition index directly.
    int first = preferred_node >= 0 ? preferred_node % num_nodes_
                                    : static_cast<int>(walk++ % num_nodes_);
    replicas.push_back(first);
    for (int r = 1; r < replication_; ++r) {
      int candidate = static_cast<int>(walk++ % num_nodes_);
      // Avoid placing two replicas of one block on the same node.
      while (std::find(replicas.begin(), replicas.end(), candidate) !=
             replicas.end()) {
        candidate = (candidate + 1) % num_nodes_;
      }
      replicas.push_back(candidate);
    }
    node.block_nodes.push_back(std::move(replicas));
  }
  node.mtime = ++mtime_counter_;
}

Status SimDfs::MkdirsLocked(const std::string& path) {
  std::string p = path::Canonicalize(path);
  std::vector<std::string> to_create;
  while (true) {
    auto it = inodes_.find(p);
    if (it != inodes_.end()) {
      if (!it->second.is_directory) {
        return Status::AlreadyExists("not a directory: " + p);
      }
      break;
    }
    to_create.push_back(p);
    if (p == "/") break;
    p = path::Parent(p);
  }
  for (auto rit = to_create.rbegin(); rit != to_create.rend(); ++rit) {
    Inode& n = inodes_[*rit];
    n.is_directory = true;
    n.mtime = ++mtime_counter_;
  }
  return Status::OK();
}

Result<std::shared_ptr<const std::string>> SimDfs::Open(
    const std::string& path) {
  std::string p = path::Canonicalize(path);
  M3R_RETURN_NOT_OK(CheckFault("dfs.read", p));
  auto ctx = integrity();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(p);
  if (it == inodes_.end()) return Status::NotFound(p);
  if (it->second.is_directory) {
    return Status::InvalidArgument("is a directory: " + p);
  }
  const Inode& node = it->second;
  if (ctx == nullptr || !node.content || node.content->empty()) {
    return node.content;
  }
  FaultInjector* fault = ctx->fault.get();
  bool corrupt_armed = fault != nullptr && fault->SiteArmed(kCorruptDfsBlock);
  if (!ctx->enabled() && !corrupt_armed) return node.content;

  // Verify (and possibly heal) block by block. The store keeps one copy of
  // the bytes; which *replica* of a block is corrupted is a pure function
  // of (seed, path, block, node), so "read the next replica" is modeled by
  // consulting the corruption site under the next replica's key.
  const std::string& content = *node.content;
  std::shared_ptr<std::string> mutated;  // corrupted copy served in mode off
  for (size_t b = 0; b < node.block_nodes.size(); ++b) {
    uint64_t off = b * block_size_;
    uint64_t len = std::min(block_size_, content.size() - off);
    const std::vector<int>& replicas = node.block_nodes[b];
    std::string_view slice(content.data() + off, len);
    auto replica_key = [&](size_t r) {
      return p + "#" + std::to_string(b) + "@" + std::to_string(replicas[r]);
    };
    if (!ctx->enabled()) {
      // No verification: the reader consumes whatever the first replica
      // holds, flipped bit included.
      std::string scratch;
      if (fault->MaybeCorruptCopy(kCorruptDfsBlock, replica_key(0), slice,
                                  &scratch)) {
        if (mutated == nullptr) mutated = std::make_shared<std::string>(content);
        mutated->replace(off, len, scratch);
      }
      continue;
    }
    bool healthy = false;
    for (size_t r = 0; r < replicas.size(); ++r) {
      std::string scratch;
      bool corrupt =
          corrupt_armed &&
          fault->MaybeCorruptCopy(kCorruptDfsBlock, replica_key(r), slice,
                                  &scratch);
      ctx->counters->bytes_checksummed.fetch_add(static_cast<int64_t>(len),
                                                 std::memory_order_relaxed);
      uint32_t got = corrupt ? crc32c::Crc32c(scratch)
                             : crc32c::Crc32c(slice.data(), slice.size());
      if (got == node.block_crcs[b]) {
        if (r > 0) {
          ctx->counters->repaired.fetch_add(1, std::memory_order_relaxed);
        }
        healthy = true;
        break;
      }
      ctx->counters->detected.fetch_add(1, std::memory_order_relaxed);
      if (!ctx->repair()) {
        return Status::DataLoss("block checksum mismatch: " + replica_key(r));
      }
    }
    if (!healthy) {
      return Status::DataLoss("all replicas corrupt: " + p + "#" +
                              std::to_string(b));
    }
  }
  if (mutated != nullptr) return std::shared_ptr<const std::string>(mutated);
  return node.content;
}

bool SimDfs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return inodes_.count(path::Canonicalize(path)) > 0;
}

Result<FileStatus> SimDfs::GetFileStatus(const std::string& path) {
  std::string p = path::Canonicalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(p);
  if (it == inodes_.end()) return Status::NotFound(p);
  FileStatus st;
  st.path = p;
  st.is_directory = it->second.is_directory;
  st.length = it->second.content ? it->second.content->size() : 0;
  st.mtime = it->second.mtime;
  return st;
}

Result<std::vector<FileStatus>> SimDfs::ListStatus(const std::string& dir) {
  std::string d = path::Canonicalize(dir);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(d);
  if (it == inodes_.end()) return Status::NotFound(d);
  std::vector<FileStatus> out;
  if (!it->second.is_directory) {
    FileStatus st;
    st.path = d;
    st.is_directory = false;
    st.length = it->second.content ? it->second.content->size() : 0;
    st.mtime = it->second.mtime;
    out.push_back(std::move(st));
    return out;
  }
  std::string prefix = d == "/" ? "/" : d + "/";
  for (auto jt = inodes_.lower_bound(prefix); jt != inodes_.end(); ++jt) {
    const std::string& p = jt->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    // Direct children only.
    if (p.find('/', prefix.size()) != std::string::npos) continue;
    FileStatus st;
    st.path = p;
    st.is_directory = jt->second.is_directory;
    st.length = jt->second.content ? jt->second.content->size() : 0;
    st.mtime = jt->second.mtime;
    out.push_back(std::move(st));
  }
  return out;
}

Status SimDfs::Mkdirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return MkdirsLocked(path);
}

Status SimDfs::Delete(const std::string& path, bool recursive) {
  std::string p = path::Canonicalize(path);
  if (p == "/") return Status::InvalidArgument("cannot delete root");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(p);
  if (it == inodes_.end()) return Status::NotFound(p);
  if (it->second.is_directory) {
    std::string prefix = p + "/";
    auto first_child = inodes_.lower_bound(prefix);
    bool has_children = first_child != inodes_.end() &&
                        first_child->first.compare(0, prefix.size(), prefix) ==
                            0;
    if (has_children && !recursive) {
      return Status::FailedPrecondition("directory not empty: " + p);
    }
    for (auto jt = first_child; jt != inodes_.end();) {
      if (jt->first.compare(0, prefix.size(), prefix) != 0) break;
      jt = inodes_.erase(jt);
    }
  }
  inodes_.erase(p);
  return Status::OK();
}

Status SimDfs::Rename(const std::string& src, const std::string& dst) {
  std::string s = path::Canonicalize(src);
  std::string d = path::Canonicalize(dst);
  if (s == d) return Status::OK();
  if (path::IsUnder(d, s)) {
    return Status::InvalidArgument("cannot rename under itself");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(s);
  if (it == inodes_.end()) return Status::NotFound(s);
  if (inodes_.count(d)) return Status::AlreadyExists(d);
  M3R_RETURN_NOT_OK(MkdirsLocked(path::Parent(d)));
  // Collect the subtree first (map iteration order is stable but we erase).
  std::vector<std::pair<std::string, Inode>> moved;
  moved.emplace_back(d, it->second);
  if (it->second.is_directory) {
    std::string prefix = s + "/";
    for (auto jt = inodes_.lower_bound(prefix); jt != inodes_.end(); ++jt) {
      if (jt->first.compare(0, prefix.size(), prefix) != 0) break;
      moved.emplace_back(d + jt->first.substr(s.size()), jt->second);
    }
  }
  // Erase source subtree.
  inodes_.erase(s);
  if (!moved.empty() && moved.front().second.is_directory) {
    std::string prefix = s + "/";
    for (auto jt = inodes_.lower_bound(prefix); jt != inodes_.end();) {
      if (jt->first.compare(0, prefix.size(), prefix) != 0) break;
      jt = inodes_.erase(jt);
    }
  }
  for (auto& [p, inode] : moved) {
    inode.mtime = ++mtime_counter_;
    inodes_[p] = std::move(inode);
  }
  return Status::OK();
}

Result<std::vector<BlockLocation>> SimDfs::GetBlockLocations(
    const std::string& path) {
  std::string p = path::Canonicalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inodes_.find(p);
  if (it == inodes_.end()) return Status::NotFound(p);
  if (it->second.is_directory) {
    return Status::InvalidArgument("is a directory: " + p);
  }
  std::vector<BlockLocation> out;
  uint64_t size = it->second.content ? it->second.content->size() : 0;
  for (size_t b = 0; b < it->second.block_nodes.size(); ++b) {
    BlockLocation loc;
    loc.offset = b * block_size_;
    loc.length = std::min(block_size_, size - loc.offset);
    loc.nodes = it->second.block_nodes[b];
    out.push_back(std::move(loc));
  }
  return out;
}

uint64_t SimDfs::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [p, inode] : inodes_) {
    if (inode.content) total += inode.content->size();
  }
  return total;
}

}  // namespace m3r::dfs

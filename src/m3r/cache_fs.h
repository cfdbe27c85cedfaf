#ifndef M3R_M3R_CACHE_FS_H_
#define M3R_M3R_CACHE_FS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/input_format.h"
#include "dfs/file_system.h"
#include "m3r/cache.h"

namespace m3r::engine {

/// The CacheFS extension interface (paper §4.2.3/§4.2.4): FileSystem
/// objects handed out by M3R additionally expose the raw cache and cached
/// record readers.
class CacheFS {
 public:
  virtual ~CacheFS() = default;
  /// A synthetic FileSystem whose operations touch only the cache, leaving
  /// the underlying file system untouched (delete-from-cache-only etc.).
  virtual std::shared_ptr<dfs::FileSystem> GetRawCache() = 0;
  /// Iterator over the cached key/value sequence of `path`.
  virtual Result<std::unique_ptr<api::RecordReader>> GetCacheRecordReader(
      const std::string& path) = 0;
};

/// The FileSystem M3R places between jobs and the real file system
/// (paper §3.2.1 "M3R intercepts calls to the base Hadoop filesystem"):
///
///  - mutations (Delete, Rename) are applied to both the cache and the
///    underlying FS, keeping the cache transparently up to date;
///  - metadata reads (Exists/GetFileStatus/ListStatus/GetBlockLocations)
///    return the union view, synthesizing entries for cache-only files
///    (temporary outputs) with their estimated lengths and the places
///    holding their blocks as "block locations";
///  - Open/Create pass through to the underlying FS (byte-level access is
///    not served from the pair cache — see the SystemML footnote in the
///    paper for why byte APIs cannot be trapped).
class M3RFileSystem : public dfs::FileSystem, public CacheFS {
 public:
  M3RFileSystem(std::shared_ptr<dfs::FileSystem> base, Cache* cache)
      : base_(std::move(base)), cache_(cache) {}

  Result<std::unique_ptr<dfs::FileWriter>> Create(
      const std::string& path, const dfs::CreateOptions& opts) override;
  Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<dfs::FileStatus> GetFileStatus(const std::string& path) override;
  Result<std::vector<dfs::FileStatus>> ListStatus(
      const std::string& dir) override;
  Status Mkdirs(const std::string& path) override;
  Status Delete(const std::string& path, bool recursive) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Result<std::vector<dfs::BlockLocation>> GetBlockLocations(
      const std::string& path) override;
  uint64_t BlockSize() const override { return base_->BlockSize(); }

  std::shared_ptr<dfs::FileSystem> GetRawCache() override;
  Result<std::unique_ptr<api::RecordReader>> GetCacheRecordReader(
      const std::string& path) override;

  dfs::FileSystem& base() { return *base_; }

  /// Restores a directory's spill-evicted cache-only files from the
  /// checkpoint (the engine installs RestoreDirFromCheckpoint). Without
  /// it, a cache-only output file another job's admission spilled between
  /// the producing job's end and a client's read would simply vanish from
  /// the union view — the bytes are safe on disk, but ListStatus and
  /// GetCacheRecordReader would silently serve the survivors.
  using HealFn = std::function<Status(const std::string& dir)>;
  void SetHealHook(HealFn heal) { heal_ = std::move(heal); }

 private:
  /// Re-restores `dir` through the heal hook iff its manifest reports
  /// missing files. Callers hold a read lease on `dir` (or a file under
  /// it) first, so healed entries cannot be re-evicted mid-read.
  void HealMissing(const std::string& dir);

  /// GetFileBlocks under a read lease, healing the parent directory on a
  /// miss before giving up.
  Result<std::vector<Cache::Block>> LeasedFileBlocks(const std::string& path);

  std::shared_ptr<dfs::FileSystem> base_;
  Cache* cache_;
  HealFn heal_;
};

/// The synthetic FS returned by GetRawCache(): metadata and mutations go to
/// the cache only. Open/Create are unsupported (the cache stores pairs, not
/// bytes; use GetCacheRecordReader).
class RawCacheFs : public dfs::FileSystem {
 public:
  explicit RawCacheFs(Cache* cache) : cache_(cache) {}

  Result<std::unique_ptr<dfs::FileWriter>> Create(
      const std::string& path, const dfs::CreateOptions& opts) override;
  Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<dfs::FileStatus> GetFileStatus(const std::string& path) override;
  Result<std::vector<dfs::FileStatus>> ListStatus(
      const std::string& dir) override;
  Status Mkdirs(const std::string& path) override;
  Status Delete(const std::string& path, bool recursive) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Result<std::vector<dfs::BlockLocation>> GetBlockLocations(
      const std::string& path) override;
  uint64_t BlockSize() const override { return 1ull << 40; }

 private:
  Cache* cache_;
};

/// RecordReader over cached blocks (copy-out semantics, for custom
/// MapRunnables and cache queries; the engine's zero-copy alias feed does
/// not go through RecordReader).
std::unique_ptr<api::RecordReader> MakeCachedReader(
    std::vector<Cache::Block> blocks);

}  // namespace m3r::engine

#endif  // M3R_M3R_CACHE_FS_H_

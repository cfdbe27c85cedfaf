#ifndef M3R_DFS_FILE_SYSTEM_H_
#define M3R_DFS_FILE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/status.h"

namespace m3r::dfs {

/// Metadata for one path, the analogue of Hadoop's FileStatus.
struct FileStatus {
  std::string path;
  bool is_directory = false;
  uint64_t length = 0;
  /// Logical modification stamp (monotonic per file system).
  int64_t mtime = 0;
};

/// One block of a file and the datanodes holding replicas of it.
struct BlockLocation {
  uint64_t offset = 0;
  uint64_t length = 0;
  std::vector<int> nodes;
};

/// Streaming writer returned by FileSystem::Create. Data becomes visible to
/// readers at Close(), matching HDFS single-writer semantics.
class FileWriter {
 public:
  virtual ~FileWriter() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Appends `data`, taking its buffer: a writer that keeps whole buffers
  /// stores it without copying. The default copies it through Append, so a
  /// decorator that forwards only Append still sees every byte.
  virtual Status AppendOwned(std::string data) { return Append(data); }
  virtual Status Close() = 0;
  virtual uint64_t BytesWritten() const = 0;
};

struct CreateOptions {
  /// Datanode that should hold the first replica of every block (HDFS
  /// writes the first replica on the writing node). -1 = unspecified.
  int preferred_node = -1;
  bool overwrite = true;
};

/// The file-system abstraction both engines program against. M3R is
/// "essentially agnostic to the file system" (paper §1); SimDFS and LocalFS
/// implement this interface, and the M3R engine adds a cache-intercepting
/// wrapper over any instance of it (paper §4.2.3).
///
/// Contents are held in memory (this is a simulator); I/O *costs* are
/// charged by the engines via sim::CostModel using the byte counts and
/// block locations this interface reports.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual Result<std::unique_ptr<FileWriter>> Create(
      const std::string& path, const CreateOptions& opts = {}) = 0;

  /// Returns a shared handle to the full file contents (cheap; no copy).
  virtual Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;
  virtual Result<FileStatus> GetFileStatus(const std::string& path) = 0;
  virtual Result<std::vector<FileStatus>> ListStatus(
      const std::string& dir) = 0;
  virtual Status Mkdirs(const std::string& path) = 0;
  virtual Status Delete(const std::string& path, bool recursive) = 0;
  virtual Status Rename(const std::string& src, const std::string& dst) = 0;
  virtual Result<std::vector<BlockLocation>> GetBlockLocations(
      const std::string& path) = 0;

  virtual uint64_t BlockSize() const = 0;

  /// Convenience: writes `data` as the complete contents of `path`.
  Status WriteFile(const std::string& path, std::string_view data,
                   const CreateOptions& opts = {});
  /// Convenience: reads complete contents.
  Result<std::string> ReadFile(const std::string& path);

  /// Installs (or clears, with null) the fault injector consulted at the
  /// "dfs.read" / "dfs.write" sites. Engines install a per-job injector at
  /// submit and clear it when the job finishes.
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector);

  /// Installs (or clears) the per-job integrity context. When set, SimDFS
  /// verifies stored per-block CRC32Cs on every Open and — in repair
  /// mode — heals a corrupted block from a surviving replica; see
  /// common/integrity.h.
  void SetIntegrity(std::shared_ptr<IntegrityContext> integrity);

 protected:
  /// Evaluates injection site `site` keyed by `path`; implementations call
  /// this at the top of Open (dfs.read) and Create (dfs.write).
  Status CheckFault(const char* site, const std::string& path);

  /// The currently installed integrity context (null when off).
  std::shared_ptr<IntegrityContext> integrity();

 private:
  std::mutex fault_mu_;
  std::shared_ptr<FaultInjector> fault_;
  std::shared_ptr<IntegrityContext> integrity_;
};

}  // namespace m3r::dfs

#endif  // M3R_DFS_FILE_SYSTEM_H_

#ifndef M3R_M3R_CACHE_H_
#define M3R_M3R_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <atomic>

#include "api/input_format.h"
#include "api/job_conf.h"
#include "common/integrity.h"
#include "common/status.h"
#include "kvstore/kv_store.h"
#include "memgov/cache_manager.h"

namespace m3r::engine {

/// M3R's input/output key-value cache (paper §3.2.1), layered over the
/// distributed key/value store of §5.2.
///
/// Naming scheme:
///  - Input files read through a RecordReader are cached under their file
///    path, one block per input split, block name = the split's byte
///    offset, placed at the place that performed the read.
///  - Job outputs are cached under their output file path
///    (<outdir>/part-NNNNN), one block named "0" covering the whole file,
///    placed at the reducer's place — which is what makes partition
///    stability effective across jobs.
///
/// Alongside the pairs, each block records an estimated serialized byte
/// size, so cache-only (temporary) outputs can be exposed as synthetic
/// files with plausible lengths and locations to the next job's
/// InputFormat.
class Cache {
 public:
  explicit Cache(int num_places) : store_(num_places) {}

  kvstore::KVStore& store() { return store_; }
  int num_places() const { return store_.num_places(); }

  struct Block {
    kvstore::BlockInfo info;
    kvstore::KVSeqPtr pairs;
    uint64_t bytes = 0;
  };

  /// Publishes a block of pairs for `path`. `bytes` is the serialized size
  /// estimate used for synthetic FileStatus lengths. Under an installed
  /// integrity context the block is stamped with a CRC32C content
  /// fingerprint at fill.
  ///
  /// Under an attached CacheManager the fill is first submitted for
  /// admission: `droppable` fills (DFS-backed input blocks a future job
  /// could re-read) may be silently bypassed when the memory budget cannot
  /// be reclaimed, while required fills (cache-only outputs, checkpoint
  /// heals) are always admitted. `fill_seconds` is the simulated cost of
  /// producing the block (its counted CPU work), feeding the cost-aware
  /// eviction policy.
  /// `whole_file` marks output-style fills whose single block "0" covers
  /// the entire file (kvstore::BlockInfo::whole_file); split-offset input
  /// fills must leave it false.
  Status PutBlock(const std::string& path, const std::string& block_name,
                  int place, kvstore::KVSeq pairs, uint64_t bytes,
                  double fill_seconds = 0.0, bool droppable = false,
                  bool whole_file = false);

  /// Attaches (or detaches, with nullptr) the memory-governance manager.
  /// The cache reports every fill/serve/delete/rename so the manager's
  /// entry table tracks residency exactly; the manager in turn gates
  /// admission in PutBlock. Not owned.
  void SetManager(memgov::CacheManager* manager) {
    manager_.store(manager, std::memory_order_release);
  }
  memgov::CacheManager* manager() const {
    return manager_.load(std::memory_order_acquire);
  }

  /// Best-effort sink for blocks AdmitFill rejected (DESIGN.md §16.2): a
  /// tiered engine routes the bounced block into its L2 home shard instead
  /// of forgetting it, so losing the L1 admission race does not cost the
  /// next pass a DFS re-read. Cleared with nullptr; failures are
  /// swallowed — rejection already meant "re-readable later".
  using OverflowSink = std::function<void(
      const std::string& path, const std::string& block_name, int place,
      const kvstore::KVSeq& pairs, uint64_t bytes, bool whole_file)>;
  void SetOverflowSink(OverflowSink sink) {
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_sink_ = std::move(sink);
  }

  /// Installs (or clears) the per-job integrity context, like the file
  /// system's SetIntegrity: PutBlock stamps under it, CheckBlock verifies.
  void SetIntegrity(std::shared_ptr<IntegrityContext> integrity);

  /// CRC32C over the canonical serialized form of `pairs` (each key and
  /// value written back-to-back). `serialized_bytes`, when non-null,
  /// receives the byte count for cost accounting.
  static uint32_t ContentCrc(const kvstore::KVSeq& pairs,
                             uint64_t* serialized_bytes = nullptr);

  /// Takes a read lease on `path` (a file or a directory) through the
  /// attached manager: in-flight evictions covering it are waited out and
  /// no new eviction can claim it while the lease lives. Returns an inert
  /// lease when no manager is attached. GetBlock/GetFileBlocks lease
  /// internally; callers spanning multiple lookups (directory listings,
  /// reuse clones) hold one explicitly.
  memgov::CacheManager::ReadLease LeaseRead(const std::string& path);

  /// Verifies a fetched block before it is served to a task. Applies any
  /// injected "corrupt.cache.block" bit flip (keyed "path#block") to the
  /// served copy, then checks the fill-time fingerprint. In repair mode a
  /// mismatch re-reads the cache's stored pairs (the surviving in-memory
  /// source) and serves those when they still match the stamp. If no
  /// intact copy remains — or in detect mode — the whole cached path is
  /// evicted (so the bad copy can never be served again) and DataLoss is
  /// returned; job-level retry then re-reads the backing file from the
  /// DFS. Returns OK immediately for unstamped blocks or when no context
  /// is installed.
  Status CheckBlock(const std::string& path, const Block& block);

  /// Returns the block of `path` with the given name, if cached.
  std::optional<Block> GetBlock(const std::string& path,
                                const std::string& block_name);

  /// All blocks of `path` in insertion order.
  Result<std::vector<Block>> GetFileBlocks(const std::string& path);

  bool ContainsFile(const std::string& path);
  /// Total estimated serialized bytes of all blocks of `path`.
  uint64_t FileBytes(const std::string& path);

  Status Delete(const std::string& path);

  /// Drops `path` from the cache like Delete but KEEPS its directory's
  /// manifest entry: eviction is a residency change, not a deletion — the
  /// data still logically exists (the eviction spilled it to the
  /// checkpoint first), and the surviving manifest is what lets
  /// ManifestMissing/the CacheFS heal hook notice the gap and restore it
  /// instead of silently serving the survivors (DESIGN.md §13).
  Status Evict(const std::string& path);

  Status Rename(const std::string& src, const std::string& dst);

  /// Files (not directories) cached under directory `dir`.
  std::vector<std::string> FilesUnder(const std::string& dir);

  /// Records the committed file set of a cache-only output directory
  /// (file → serialized bytes). A later consumer checks it with
  /// ManifestMissing: cache-only data has no DFS backing, so a file or
  /// block lost to a place crash would otherwise just disappear from the
  /// union view and the consumer would silently compute on the survivors
  /// (DESIGN.md §13). Recording an empty directory clears the manifest.
  void RecordManifest(const std::string& dir);

  /// Compares `dir`'s recorded manifest (if any) against current cache
  /// contents: returns a "file (have X of Y bytes)" entry per committed
  /// file that is now short. Empty when no manifest was recorded or
  /// everything is intact. Run after checkpoint heal, so only data that
  /// is genuinely unrecoverable is reported.
  std::vector<std::string> ManifestMissing(const std::string& dir);

  uint64_t TotalPairs() const { return store_.TotalPairs(); }

  /// Estimated serialized bytes held by the cache — the "presence in the
  /// cache wastes memory" quantity the paper's benchmarks manage with
  /// explicit deletes (§6.1).
  uint64_t TotalBytes();

  /// Cache name for a split (paper §4.2.1): FileSplits map to their path,
  /// NamedSplits to their declared name, DelegatingSplits are unwrapped
  /// recursively. nullopt => unknown split type, the cache must be
  /// bypassed.
  static std::optional<std::string> NameForSplit(const api::InputSplit& split);
  /// Block name within the file for a split ("<offset>" for FileSplits,
  /// "0" otherwise).
  static std::string BlockNameForSplit(const api::InputSplit& split);

  /// True if `output_path` should be treated as temporary — not written to
  /// the DFS at all (paper §4.2.3): its final path component starts with
  /// the configured prefix (default "temp"), or it is enumerated in
  /// m3r.temp.paths.
  static bool IsTemporary(const api::JobConf& conf,
                          const std::string& output_path);

 private:
  std::shared_ptr<IntegrityContext> integrity_snapshot();

  /// Drops manifests covering `path` (a deleted subtree) and removes
  /// `path` itself from any directory manifest (an explicit file delete —
  /// the user is done with the data, consumers must not fail over it).
  void ForgetManifests(const std::string& path);

  kvstore::KVStore store_;
  std::mutex integrity_mu_;
  std::shared_ptr<IntegrityContext> integrity_;
  std::atomic<memgov::CacheManager*> manager_{nullptr};
  std::mutex overflow_mu_;
  OverflowSink overflow_sink_;
  std::mutex manifest_mu_;
  /// dir → (file → committed serialized bytes).
  std::map<std::string, std::map<std::string, uint64_t>> manifests_;
};

}  // namespace m3r::engine

#endif  // M3R_M3R_CACHE_H_

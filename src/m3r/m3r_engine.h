#ifndef M3R_M3R_M3R_ENGINE_H_
#define M3R_M3R_M3R_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/buffer_pool.h"
#include "common/integrity.h"
#include "dfs/file_system.h"
#include "m3r/cache.h"
#include "m3r/cache_fs.h"
#include "l2cache/tiered_cache_manager.h"
#include "memgov/cache_manager.h"
#include "memgov/memory_governor.h"
#include "serialize/dedup.h"
#include "sim/cost_model.h"
#include "x10rt/place_group.h"

namespace m3r::engine {

struct M3REngineOptions {
  sim::ClusterSpec cluster;
  /// Host threads backing the logical places (0 = hardware threads).
  int host_threads = 0;
  /// X10 serialization de-duplication policy for the remote shuffle.
  serialize::DedupMode dedup_mode = serialize::DedupMode::kFull;
  /// Ablations: the benchmarks toggle these to isolate each mechanism.
  bool enable_cache = true;
  bool partition_stability = true;
  /// When false, ImmutableOutput promises are ignored and every pair is
  /// cloned (measures the cost of the HMR reuse contract).
  bool respect_immutable = true;
  /// Worker strands per place for map execution, shuffle-stream decode,
  /// and reduce execution (the paper's "8 worker threads to exploit the 8
  /// cores"). 0 = auto: hardware threads / number of places, at least 1.
  /// Jobs may override per submission via m3r.place.workers.
  int workers_per_place = 0;
};

/// The M3R engine (paper §3.2): a fixed set of long-lived places that run
/// every job of the submitted sequence, an input/output key-value cache
/// shared between jobs, an in-memory de-duplicating shuffle with a
/// co-location fast path, and deterministic partition->place assignment
/// (partition stability).
///
/// Like the paper's engine it does not retry failed *tasks*: any task
/// failure fails the whole instance's job. Whole-place crashes are a
/// different story (DESIGN.md §14): a per-job membership service tracks
/// places Healthy -> Suspect -> Dead in epoch-numbered views, and within
/// the m3r.place.recovery.max.crashes budget a crash in the map phase is
/// survived in-flight — at the next quiesce point the dead place's cache
/// blocks are evicted, its shuffle partitions are re-homed onto survivors
/// under a versioned partition map, evicted inputs are healed from the
/// checkpoint, and only the lost map tasks are replayed before the job
/// continues into reduce. Crashes past the recovery horizon (mid-reduce,
/// more than m3r.place.recovery.max.crashes places, or unrecoverable data
/// loss) fall back to the pre-recovery behavior: the job fails with a
/// retriable Status::Unavailable, committing no partial _SUCCESS. The
/// optional checkpoint policy (m3r.cache.checkpoint=off|tempout|all)
/// spills cache-only temporary outputs to the DFS in the background, so a
/// restarted instance replays a job sequence from the last materialized
/// output instead of re-running completed jobs.
class M3REngine : public api::Engine {
 public:
  explicit M3REngine(std::shared_ptr<dfs::FileSystem> base_fs,
                     M3REngineOptions options = {});
  ~M3REngine() override;

  /// DFS directory under which checkpoint spills live, mirroring the
  /// cached path: /_m3r_ckpt<dir>/<file>.blk.<block> plus a _DONE marker
  /// per directory once every file of a spill landed.
  static constexpr const char* kCheckpointRoot = "/_m3r_ckpt";

  /// Blocks until every background checkpoint spill scheduled so far has
  /// finished writing (the destructor does this implicitly).
  void WaitForCheckpoints();

  std::string Name() const override { return "m3r"; }
  api::JobResult Submit(const api::JobConf& conf) override;

  /// The cache-intercepting FileSystem M3R hands to jobs and clients. Also
  /// implements the CacheFS extension (GetRawCache, cache record readers).
  const std::shared_ptr<M3RFileSystem>& Fs() const { return fs_; }

  Cache& cache() { return cache_; }
  int NumPlaces() const { return places_.NumPlaces(); }
  const M3REngineOptions& options() const { return options_; }

  /// Memory governance (src/memgov): the per-engine governor metering the
  /// cache, shuffle buffer pool, hash-combine tables, and checkpoint spill
  /// queue, and the cache manager fronting eviction/pinning/reuse. The
  /// budget and policy knobs (m3r.memory.*, m3r.cache.*) are re-read from
  /// each submitted job's configuration.
  memgov::MemoryGovernor& governor() { return governor_; }
  memgov::CacheManager& cache_manager() { return *cache_manager_; }
  /// The same manager through its two-tier interface (src/l2cache;
  /// DESIGN.md §16). Always non-null; the tier itself is enabled per job
  /// by m3r.cache.l2.share > 0 under a governed budget.
  l2cache::TieredCacheManager& tiered_cache() { return *tiered_; }

  /// One-time instance spin-up cost (charged on construction, reported
  /// separately from per-job times, as the paper's measurements do).
  double InstanceStartSeconds() const {
    return options_.cluster.m3r_instance_start_s;
  }

  /// Pre-populates the cache for `path` by reading it through the job's
  /// input format, as the paper does for the sparse-matrix benchmark
  /// ("we pre-populated our cache with the input data", §6.2). Returns the
  /// number of splits loaded.
  Result<int> PrepopulateCache(const api::JobConf& conf);

 private:
  /// One submission's state and phases (m3r_engine.cc).
  class JobRun;

  /// Every cached file with no DFS backing (temporary outputs, named
  /// outputs under temp paths) — the "all" checkpoint policy's spill set.
  std::vector<std::string> AllCacheOnlyFiles();
  /// Loads checkpointed blocks of `dir` back into the cache. With
  /// `only_missing`, blocks already cached are left alone (healing after a
  /// place crash evicted part of a file). No checkpoint => OK, no-op.
  /// Spill files carry a CRC32C in their header; under a non-null enabled
  /// `integrity` each payload is verified before decode and a mismatch
  /// fails the restore with DataLoss (callers fall back to re-running).
  Status RestoreDirFromCheckpoint(const std::string& dir, bool only_missing,
                                  int* files, uint64_t* bytes,
                                  const IntegrityContext* integrity = nullptr);
  /// Snapshots the named files' blocks and spills them on a background
  /// thread, directory by directory, committing each with a _DONE marker.
  void ScheduleCheckpoint(std::vector<std::string> files);
  /// Synchronous single-file spill through the checkpoint path — the cache
  /// manager's eviction hook for files with no DFS backing. Unlike
  /// ScheduleCheckpoint it never pre-cleans the checkpoint directory
  /// (sibling files' spills must survive) and refreshes the _DONE marker
  /// itself.
  Status SpillFileToCheckpoint(const std::string& path);
  /// L2 tier data movement (the TieredCacheManager's L2Hooks): freeze
  /// serializes a victim's cached blocks to wire payloads, thaw publishes
  /// payloads back into the cache (skipping blocks already resident), and
  /// the payload spill writes them through the checkpoint format — the
  /// last-replica fallback that never re-reads the (already evicted)
  /// cache entry.
  Status FreezePayloads(const std::string& path,
                        std::vector<l2cache::BlockPayload>* out);
  Status ThawPayloads(const std::string& path,
                      const std::vector<l2cache::BlockPayload>& payloads);
  Status SpillPayloadsToCheckpoint(
      const std::string& path,
      const std::vector<l2cache::BlockPayload>& payloads);
  /// Weak content version of an input path for the lineage signature:
  /// total bytes + modification stamps under the union (cache + DFS) view.
  uint64_t InputVersion(const std::string& path);

  std::shared_ptr<dfs::FileSystem> base_fs_;
  M3REngineOptions options_;
  sim::CostModel cost_;
  Cache cache_;
  std::shared_ptr<M3RFileSystem> fs_;
  x10rt::PlaceGroup places_;
  /// Engine-lifetime pool of shuffle wire buffers: each job's exchange
  /// recycles its lanes here on teardown, so a job sequence's steady state
  /// stops paying allocator round trips and re-reserves capacity sized
  /// from the previous job.
  BufferPool buffer_pool_;
  /// Live bytes of the running job's resident shuffle runs (pipelined
  /// mode), mirrored by the exchange and folded into the "shuffle.pool"
  /// gauge alongside the buffer pool.
  std::atomic<uint64_t> shuffle_run_bytes_{0};
  /// Live bytes across every worker lane's hash-combine table, polled by
  /// the governor as the "hashcombine" consumer.
  std::atomic<int64_t> hash_combine_bytes_{0};
  memgov::MemoryGovernor governor_;
  /// Declared after every subsystem its hooks touch (cache_, base_fs_).
  std::unique_ptr<memgov::CacheManager> cache_manager_;
  /// Non-owning view of cache_manager_ as the tiered subclass it is.
  l2cache::TieredCacheManager* tiered_ = nullptr;
  int job_counter_ = 0;
  int round_robin_ = 0;
  std::mutex ckpt_mu_;
  std::vector<std::thread> ckpt_threads_;
};

}  // namespace m3r::engine

#endif  // M3R_M3R_M3R_ENGINE_H_

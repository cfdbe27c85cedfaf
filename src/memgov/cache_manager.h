#ifndef M3R_MEMGOV_CACHE_MANAGER_H_
#define M3R_MEMGOV_CACHE_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "memgov/memory_governor.h"

namespace m3r::memgov {

/// Eviction policy for governed cache entries (m3r.cache.policy).
enum class EvictionPolicy {
  kLru,  ///< evict the least-recently-accessed file
  kLfu,  ///< evict the least-frequently-accessed file (recency tie-break)
  /// Cost-aware (GreedyDual-style): evict the file with the lowest
  /// rebuild-cost per byte, using the recorded fill time — frees the most
  /// memory per second of recompute a future miss would pay.
  kCost,
};

const char* EvictionPolicyName(EvictionPolicy policy);

/// Fronts the M3R cache with budgeted admission, pluggable eviction,
/// pinning, and a lineage registry for cross-job output reuse
/// (DESIGN.md §11). The manager never touches cache data itself: the
/// engine supplies hooks that spill (through the checkpoint path) and
/// evict by path, and the Cache notifies the manager of every fill,
/// access, delete, and rename so the entry table tracks reality.
///
/// Granularity is one *file* (all its blocks): that is the unit the cache
/// already evicts on integrity failures and the unit checkpoint spills
/// commit, so eviction can reuse both paths unchanged.
class CacheManager {
 public:
  struct Hooks {
    /// Persists a cache-only file through the checkpoint path so eviction
    /// loses no data. May be empty (evictees are then dropped; only safe
    /// when every cached file has DFS backing).
    std::function<Status(const std::string& path)> spill;
    /// Drops `path` from the cache (the manager hears back via OnDelete).
    std::function<Status(const std::string& path)> evict;
    /// True when `path` exists in the backing DFS (re-readable, so spill
    /// is unnecessary before eviction).
    std::function<bool(const std::string& path)> has_backing;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    /// Evictions that had to spill (no DFS backing) before dropping.
    uint64_t spilled_evictions = 0;
    /// Droppable fills declined because no budget could be reclaimed.
    uint64_t rejected_fills = 0;
    /// Required fills admitted over budget (pinned inputs, temp outputs).
    uint64_t forced_fills = 0;
    uint64_t reuse_hits = 0;
    /// Evictions claimed, spilled, and then abandoned because post-spill
    /// revalidation found the victim pinned, leased, or refilled — the
    /// lease/epoch protocol turning a would-be lost block into a no-op.
    uint64_t aborted_evictions = 0;
  };

  CacheManager(MemoryGovernor* governor, Hooks hooks);
  virtual ~CacheManager() = default;

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// --- Read-lease / fill-epoch protocol (DESIGN.md §13) ---
  ///
  /// Block lifetime is made explicit: a reader holds a counted lease on the
  /// file (or directory subtree) it is reading, a fill brackets the whole
  /// admit→publish window, and the evictor may only claim entries with zero
  /// covering leases and a sealed fill epoch. An eviction already in flight
  /// when a lease is requested is waited out, so a reader never observes
  /// the torn half of a spill+delete; conversely the evictor revalidates
  /// the claimed epoch after its unlocked spill and aborts (rather than
  /// deletes) when a lease, pin, or refill arrived meanwhile.

  /// RAII read lease over `path` (a file, or a directory covering files).
  /// Movable; releases on destruction.
  class ReadLease {
   public:
    ReadLease() = default;
    ReadLease(CacheManager* mgr, std::string path)
        : mgr_(mgr), path_(std::move(path)) {}
    ReadLease(ReadLease&& other) noexcept { *this = std::move(other); }
    ReadLease& operator=(ReadLease&& other) noexcept {
      if (this != &other) {
        Release();
        mgr_ = other.mgr_;
        path_ = std::move(other.path_);
        other.mgr_ = nullptr;
      }
      return *this;
    }
    ReadLease(const ReadLease&) = delete;
    ReadLease& operator=(const ReadLease&) = delete;
    ~ReadLease() { Release(); }

    void Release();

   private:
    CacheManager* mgr_ = nullptr;
    std::string path_;
  };

  /// Takes a counted read lease on `path`, first waiting out any in-flight
  /// eviction covering it (the evictor's own spill reads are exempt, so
  /// spill hooks can read their victim without deadlocking). While the
  /// lease is held no covered entry can be claimed for eviction.
  ReadLease AcquireRead(const std::string& path);

  /// Brackets a fill of `path`: from BeginFill to EndFill the file's fill
  /// epoch is unsealed and the entry is never evictable, so a partially
  /// published file cannot be claimed between admission and publish.
  /// BeginFill waits out an in-flight eviction of `path` itself.
  void BeginFill(const std::string& path);
  void EndFill(const std::string& path);

  /// Live protocol gauges (cache_leases_active / cache_evictor_inflight).
  uint64_t LeasesActive() const;
  uint64_t EvictorInflight() const;

  /// Name under which cache bytes are pushed to the governor.
  static constexpr const char* kConsumer = "cache";

  /// (Re)configures policy and watermarks; called per job submission. The
  /// watermarks are fractions of the cache's consumer budget and act at
  /// admission (see AdmitFill).
  void Configure(EvictionPolicy policy, double high_watermark,
                 double low_watermark);
  EvictionPolicy policy() const;

  /// Admission decision for a fill of `add_bytes` into `path`, taken
  /// before the block is published. Eviction runs here, on the filling
  /// thread (EvictToBudget is the only other caller): when the fill would
  /// lift residency over `high`, one eviction loop drains toward `low`
  /// (fewer bytes if not enough is claimable), and in any case evicts
  /// until the fill fits the budget. Returns false only for droppable
  /// (!required) fills that still do not fit — the caller then bypasses
  /// the cache. Required fills (outputs with no DFS backing, checkpoint
  /// heals of in-flight inputs) are always admitted, counted as forced
  /// when over budget.
  bool AdmitFill(const std::string& path, uint64_t add_bytes, bool required);

  /// A block of `path` was published (`fill_seconds` = simulated cost of
  /// producing it, 0 when unknown — feeds the cost policy's rebuild cost).
  /// Virtual: a tiered subclass invalidates its own stale copy of `path`
  /// when a fresh fill supersedes it.
  virtual void OnFill(const std::string& path, uint64_t add_bytes,
                      double fill_seconds);
  /// A block of `path` was served.
  void OnAccess(const std::string& path);
  /// `path` (file or directory subtree) left the cache, by any route.
  virtual void OnDelete(const std::string& path);
  virtual void OnRename(const std::string& src, const std::string& dst);

  /// Pins `path` (a file, or a directory covering files) against
  /// eviction. Counted: nested Pin/Unpin pairs compose. Waits out any
  /// eviction already in flight under `path`, so after Pin returns no
  /// stale eviction can delete a pinned block behind the caller's back.
  void Pin(const std::string& path);
  void Unpin(const std::string& path);
  bool IsPinned(const std::string& path) const;

  void RecordHit() { Bump(&Counters::hits); }
  void RecordMiss() { Bump(&Counters::misses); }

  /// --- ReStore-style output reuse (m3r.cache.reuse=exact) ---
  /// Associates a lineage signature with a finished job's output
  /// directory and the cached files it produced.
  void RegisterReuse(const std::string& signature,
                     const std::string& output_dir,
                     std::vector<std::string> files);
  /// Output directory of a live registration: every registered file must
  /// still be cached; stale registrations are dropped. Counts reuse_hits.
  std::optional<std::string> LookupReuse(const std::string& signature);

  /// Synchronously evicts until the cache fits its consumer budget (and
  /// the governor's total fits the overall budget). Used by tests and the
  /// engine's job-boundary sweep. Virtual: a tiered subclass also settles
  /// its own in-flight demotions so the sweep is a real quiesce point.
  virtual void EvictToBudget();

  /// Re-reads every entry's size through `bytes_of` (0 erases the entry) —
  /// used after a place crash evicted blocks behind the manager's back.
  void Reconcile(const std::function<uint64_t(const std::string&)>& bytes_of);

  uint64_t ResidentBytes() const;
  size_t EntryCount() const;
  Counters counters() const;

 protected:
  /// --- Extension points for tiered subclasses (src/l2cache) ---
  ///
  /// Preserves a claimed victim's data before the eviction deletes it from
  /// the cache. Runs on the evicting thread, unlocked, between the claim
  /// and the post-preserve revalidation; `backed` mirrors
  /// Hooks::has_backing. The base behavior spills unbacked victims through
  /// the checkpoint hook (`*spilled` reports whether a spill happened); a
  /// tiered subclass may demote to another tier instead, keeping the base
  /// spill as its final fallback. A non-OK status backs the eviction off:
  /// the victim is skipped for the rest of the round and nothing was
  /// deleted.
  virtual Status PreserveVictim(const std::string& victim, bool backed,
                                bool* spilled);
  /// Called (unlocked, still on the evicting thread) when post-preserve
  /// revalidation aborted the eviction — a pin, lease, or refill arrived
  /// while PreserveVictim ran. A subclass drops whatever tier copy it just
  /// made: the entry stays live in L1, so the copy is redundant at best
  /// and stale after a refill.
  virtual void OnEvictionAborted(const std::string& victim);
  /// True on a thread currently inside eviction hooks (the marker that
  /// lets the evictor's own cache reads bypass the lease wait-out).
  static bool OnEvictorThread() { return evictor_depth_ > 0; }
  /// True when a pin, read lease, or unsealed fill covers `path` — a
  /// tiered subclass must refuse to evict such an entry from its own tier
  /// exactly like L1 does (DESIGN.md §13).
  bool LeasedOrPinned(const std::string& path) const;
  /// True when `path` currently has a live L1 entry (not claimed by an
  /// in-flight eviction) — i.e. another replica exists in this tier.
  bool ResidentEntry(const std::string& path) const;
  MemoryGovernor* governor() const { return governor_; }

 private:
  struct Entry {
    uint64_t bytes = 0;
    double fill_seconds = 0;
    uint64_t last_tick = 0;
    uint64_t access_count = 0;
    /// Claimed by an in-flight eviction; invisible to victim selection.
    bool evicting = false;
    /// Bumped on every published block. The evictor records the epoch at
    /// claim time and revalidates it after the unlocked spill: a mismatch
    /// means the file changed under the spill and the eviction aborts.
    uint64_t fill_epoch = 0;
  };

  void Bump(uint64_t Counters::* field);
  bool PinnedLocked(const std::string& path) const;
  /// True when a read lease or unsealed fill covers `path`.
  bool LeasedLocked(const std::string& path) const;
  /// True when an in-flight eviction claims an entry under `root`.
  bool EvictingUnderLocked(const std::string& root) const;
  void ReleaseRead(const std::string& path);
  /// Bytes the cache must shed to fit `add_bytes` more, honoring both the
  /// cache share and the governor's total budget.
  uint64_t OverageLocked(uint64_t add_bytes) const;
  /// Lowest-score evictable entry, or empty. Skips pins, read leases,
  /// unsealed fills, in-flight evictions, and `skip` (paths whose spill
  /// failed or whose eviction aborted this round).
  std::string PickVictimLocked(const std::vector<std::string>& skip) const;
  /// The one eviction loop: evicts until OverageLocked(add_bytes) == 0
  /// and resident + add_bytes <= `drain_to`, or no victims remain. The
  /// drain is best effort; returns true when the fill fits. Caller must
  /// NOT hold mu_.
  bool EvictUntilFits(uint64_t add_bytes, uint64_t drain_to);
  /// Evicts one victim (spilling first if unbacked). Returns false when
  /// nothing is evictable; paths whose spill failed are appended to `skip`
  /// and retried no further this round. Caller must NOT hold mu_.
  bool EvictOneVictim(std::vector<std::string>* skip);
  void EraseSubtreeLocked(const std::string& path);
  void InvalidateReuseLocked(const std::string& path);

  MemoryGovernor* const governor_;
  const Hooks hooks_;

  mutable std::mutex mu_;
  /// Signalled whenever an in-flight eviction completes (or backs off), so
  /// a concurrent EvictUntilFits can wait instead of giving up early.
  std::condition_variable evict_done_cv_;
  EvictionPolicy policy_ = EvictionPolicy::kLru;
  double high_watermark_ = 0.90;
  double low_watermark_ = 0.75;
  uint64_t tick_ = 0;
  uint64_t resident_bytes_ = 0;
  std::map<std::string, Entry> entries_;
  std::map<std::string, int> pins_;
  /// Counted read leases by lease root (file or directory).
  std::map<std::string, int> leases_;
  /// Fills in flight by file path; an entry here means the file's fill
  /// epoch is unsealed and the file must not be claimed for eviction.
  std::map<std::string, int> fills_;
  uint64_t leases_active_ = 0;
  uint64_t evictor_inflight_ = 0;
  /// Nonzero on a thread currently running eviction hooks: its own reads
  /// of the victim (the spill path) bypass the wait-out in AcquireRead.
  static thread_local int evictor_depth_;
  struct ReuseEntry {
    std::string output_dir;
    std::vector<std::string> files;
  };
  std::map<std::string, ReuseEntry> reuse_;
  Counters counters_;
};

}  // namespace m3r::memgov

#endif  // M3R_MEMGOV_CACHE_MANAGER_H_

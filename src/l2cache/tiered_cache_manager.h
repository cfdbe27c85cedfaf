#ifndef M3R_L2CACHE_TIERED_CACHE_MANAGER_H_
#define M3R_L2CACHE_TIERED_CACHE_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "l2cache/hash_ring.h"
#include "memgov/cache_manager.h"

namespace m3r::l2cache {

/// One frozen cache block: the x10rt wire image plus the header fields a
/// checkpoint spill would carry, so an L2 entry can be thawed back into
/// the cache (promotion, heal) or written through the checkpoint path
/// (last-replica fallback) without re-serializing.
struct BlockPayload {
  std::string block_name;
  int place = 0;           ///< home place of the block's L1 copy
  uint64_t bytes = 0;      ///< serialized size estimate (accounting)
  bool whole_file = false;
  uint32_t crc = 0;        ///< CRC32C of `wire`
  std::string wire;
};

/// Engine-supplied data movement for the L2 tier. The manager itself
/// never touches cache pairs or the DFS — mirroring the L1 Hooks design.
struct L2Hooks {
  /// Serializes every cached block of `path` into payloads (the demotion
  /// freeze; runs on the evicting thread — an admitting filler or the
  /// job-boundary sweep — with the victim claimed).
  std::function<Status(const std::string& path,
                       std::vector<BlockPayload>* out)>
      freeze;
  /// Publishes payloads back into the cache, skipping blocks already
  /// resident (promotion / heal thaw).
  std::function<Status(const std::string& path,
                       const std::vector<BlockPayload>& payloads)>
      thaw;
  /// Writes payloads through the checkpoint path — the final fallback
  /// when the last replica of an unbacked file must leave the tier.
  std::function<Status(const std::string& path,
                       const std::vector<BlockPayload>& payloads)>
      spill;
  /// True when `path` is re-readable from the backing DFS.
  std::function<bool(const std::string& path)> has_backing;
};

/// Engine-lifetime tier counters; the engine snapshots these at job start
/// and reports per-job deltas (L2_HITS etc.).
struct L2Counters {
  uint64_t hits = 0;        ///< promotions served from the tier
  uint64_t misses = 0;      ///< L1 misses the tier could not serve
  uint64_t demotions = 0;   ///< L1 victims absorbed by their home shard
  /// Demoted/promoted bytes whose block place differed from the home
  /// shard — the tier's cross-place wire traffic.
  uint64_t remote_bytes = 0;
  uint64_t ring_heals = 0;  ///< dead shards reassigned to survivors
  uint64_t evictions = 0;   ///< L2 entries dropped for shard room
  /// Last replicas written through the checkpoint path before dropping.
  uint64_t spilled_last_replicas = 0;
  /// Demotions dropped again because L1 revalidation aborted the eviction
  /// (pin/lease/refill arrived mid-demote).
  uint64_t aborted_demotions = 0;
  /// Rejected L1 fills the tier absorbed instead (victim-cache overflow).
  uint64_t overflow_fills = 0;
};

/// Two-tier cache manager (DESIGN.md §16): the inherited L1 behavior plus
/// a consistent-hash-partitioned L2 tier spread across places. L1
/// evictions demote their victim's frozen blocks to the victim's home
/// shard instead of spilling to /_m3r_ckpt when the shard has room (the
/// checkpoint spill stays as the final fallback); L1 misses promote from
/// the tier before falling through to the DFS.
///
/// Coordinated eviction: within a shard, entries that still have another
/// replica (DFS backing, or a live L1 entry) are evicted first, so the
/// last replica of a block is the last evicted ring-wide — and when it
/// finally must go, it is checkpoint-spilled first. Entries covered by a
/// read lease or pin are never evicted from L2, exactly like L1.
///
/// The tier models memory pooled across the *other* places' shards, so
/// its bytes are tracked internally against m3r.cache.l2.share of the
/// budget rather than pushed into the local governor pool (which would
/// feed back into L1 overage and defeat the demotion).
class TieredCacheManager : public memgov::CacheManager {
 public:
  TieredCacheManager(memgov::MemoryGovernor* governor, Hooks hooks,
                     L2Hooks l2_hooks);

  /// (Re)configures the tier per job submission: `l2_budget_bytes` is the
  /// ring-wide capacity (each place's donation times the ring size), split
  /// evenly across the ring's places as shard caps. Disabling (or an empty
  /// ring) drops every L2 entry, checkpoint-spilling unbacked last
  /// replicas first.
  void ConfigureL2(bool enabled, const std::vector<int>& places, int vnodes,
                   uint64_t l2_budget_bytes);
  bool L2Enabled() const;

  /// Home shard of `path` on the current ring (-1 when disabled/empty).
  int HomeOf(const std::string& path) const;
  bool L2Contains(const std::string& path) const;

  /// L1-miss path: thaw `path`'s frozen blocks back into the cache under
  /// a read lease (so no eviction can claim either copy mid-promote) and
  /// drop the L2 entry — a promotion is a move, not a copy. Counts a tier
  /// hit; `*remote` reports whether the bytes crossed places. Returns
  /// NotFound when the tier has no entry (counted as a miss only by
  /// RecordL2Miss, so probes of L1-resident files stay silent).
  Status TryPromote(const std::string& path, bool* remote, uint64_t* bytes);

  /// Promotes every L2 entry under directory `dir`; with `only_unbacked`,
  /// only cache-only files (the ones a manifest check would fail over).
  /// Returns the number promoted; `*bytes` (optional) sums their sizes.
  int PromoteUnder(const std::string& dir, bool only_unbacked,
                   uint64_t* bytes);

  /// An L1 miss the tier could not serve fell through to the DFS.
  void RecordL2Miss();

  /// Victim-cache path for fills L1 *rejected* (admission raced a full
  /// budget or another consumer's pressure): the already-serialized block
  /// lands directly in its home shard instead of being dropped, so a
  /// block that lost the L1 admission race is still tier-resident for the
  /// next pass. Merges into an existing entry for the path (block-by-block
  /// fills); NotFound/FailedPrecondition when the tier is off or the shard
  /// cannot make room — the caller just forgets the block, exactly as the
  /// pre-tier bypass did.
  Status AcceptOverflow(const std::string& path, bool backed,
                        BlockPayload payload);

  /// Membership reaction (composes with DESIGN.md §14 recovery): the
  /// confirmed-dead places' shards are gone — their entries are dropped
  /// (the data heals lazily from DFS/checkpoint on first touch), their
  /// hash ranges fall to the survivors, and per-shard caps are re-derived
  /// over the shrunken ring. Counts one ring heal per dead shard.
  void RingHeal(const std::vector<int>& dead);

  uint64_t L2ResidentBytes() const;
  size_t L2EntryCount() const;
  L2Counters l2_counters() const;
  uint64_t DemotionsInflight() const;

  /// The job-boundary settle sweep: the inherited L1 sweep, then wait out
  /// in-flight demotions so tests observing spill/demote effects see a
  /// settled tier.
  void EvictToBudget() override;

  /// A fresh fill from outside the evictor supersedes any L2 copy (this
  /// also finalizes a promotion's move). Public like the base notifiers:
  /// the cache drives them.
  void OnFill(const std::string& path, uint64_t add_bytes,
              double fill_seconds) override;
  void OnDelete(const std::string& path) override;
  void OnRename(const std::string& src, const std::string& dst) override;

 protected:
  /// Demotes the victim to its home shard when the tier is enabled and
  /// the shard has (or can make) room; otherwise defers to the base
  /// checkpoint-spill behavior.
  Status PreserveVictim(const std::string& victim, bool backed,
                        bool* spilled) override;
  /// L1 kept the entry after all — drop the copy the demote just made.
  void OnEvictionAborted(const std::string& victim) override;

 private:
  struct L2Entry {
    int home = -1;
    uint64_t bytes = 0;
    /// DFS copy exists: dropping this entry loses nothing.
    bool backed = false;
    uint64_t last_tick = 0;
    std::vector<BlockPayload> payloads;
  };

  uint64_t ShardCapLocked() const;
  uint64_t ShardUsageLocked(int home) const;
  /// Evicts shard `home` entries (replicated first, last replicas spilled
  /// then last) until `need` more bytes fit under the shard cap. Leased
  /// and pinned paths are skipped. Returns true when the room exists.
  bool MakeRoomLocked(int home, uint64_t need);
  /// Picks the shard's next eviction victim honoring the coordination
  /// order, or end() when nothing is evictable.
  std::map<std::string, L2Entry>::iterator PickShardVictimLocked(int home);
  void DropLocked(std::map<std::string, L2Entry>::iterator it);
  void DropAllLocked(bool spill_unbacked);
  void InvalidateL2(const std::string& path);

  const L2Hooks l2_hooks_;

  /// Guards all tier state. Lock order: l2_mu_ may be held while calling
  /// the base class's locking accessors (LeasedOrPinned, ResidentEntry),
  /// never the reverse — no base code path calls into the tier while
  /// holding the base mutex.
  mutable std::mutex l2_mu_;
  std::condition_variable demote_cv_;
  bool enabled_ = false;
  uint64_t l2_budget_ = 0;
  uint64_t l2_resident_ = 0;
  uint64_t l2_tick_ = 0;
  uint64_t demotions_inflight_ = 0;
  HashRing ring_;
  std::map<std::string, L2Entry> l2_entries_;
  L2Counters l2_counters_;
};

}  // namespace m3r::l2cache

#endif  // M3R_L2CACHE_TIERED_CACHE_MANAGER_H_

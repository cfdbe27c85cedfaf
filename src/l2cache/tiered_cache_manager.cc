#include "l2cache/tiered_cache_manager.h"

#include <algorithm>
#include <utility>

namespace m3r::l2cache {
namespace {

bool InSubtree(const std::string& path, const std::string& root) {
  if (path == root) return true;
  return path.size() > root.size() + 1 && path.starts_with(root) &&
         path[root.size()] == '/';
}

}  // namespace

TieredCacheManager::TieredCacheManager(memgov::MemoryGovernor* governor,
                                       Hooks hooks, L2Hooks l2_hooks)
    : memgov::CacheManager(governor, std::move(hooks)),
      l2_hooks_(std::move(l2_hooks)) {}

void TieredCacheManager::ConfigureL2(bool enabled,
                                     const std::vector<int>& places,
                                     int vnodes, uint64_t l2_budget_bytes) {
  std::lock_guard<std::mutex> lock(l2_mu_);
  if (!enabled || places.empty() || l2_budget_bytes == 0) {
    if (enabled_) DropAllLocked(/*spill_unbacked=*/true);
    enabled_ = false;
    l2_budget_ = 0;
    ring_.Reset({}, vnodes);
    return;
  }
  enabled_ = true;
  l2_budget_ = l2_budget_bytes;
  ring_.Reset(places, vnodes);
  // Between jobs the full place set is healthy again (membership is per
  // submission): surviving entries are re-labelled onto their new homes.
  // This models the job-boundary shard transfer; mid-job re-homing only
  // ever *removes* shards (RingHeal).
  for (auto& [path, entry] : l2_entries_) entry.home = ring_.HomeOf(path);
}

bool TieredCacheManager::L2Enabled() const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return enabled_;
}

int TieredCacheManager::HomeOf(const std::string& path) const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return enabled_ ? ring_.HomeOf(path) : -1;
}

bool TieredCacheManager::L2Contains(const std::string& path) const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return enabled_ && l2_entries_.count(path) > 0;
}

uint64_t TieredCacheManager::L2ResidentBytes() const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return l2_resident_;
}

size_t TieredCacheManager::L2EntryCount() const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return l2_entries_.size();
}

L2Counters TieredCacheManager::l2_counters() const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return l2_counters_;
}

uint64_t TieredCacheManager::DemotionsInflight() const {
  std::lock_guard<std::mutex> lock(l2_mu_);
  return demotions_inflight_;
}

void TieredCacheManager::RecordL2Miss() {
  std::lock_guard<std::mutex> lock(l2_mu_);
  if (enabled_) l2_counters_.misses += 1;
}

Status TieredCacheManager::AcceptOverflow(const std::string& path,
                                          bool backed,
                                          BlockPayload payload) {
  if (payload.bytes == 0 || payload.wire.empty()) {
    return Status::InvalidArgument("empty overflow payload: " + path);
  }
  std::lock_guard<std::mutex> lock(l2_mu_);
  if (!enabled_ || ring_.empty()) {
    return Status::FailedPrecondition("L2 tier disabled");
  }
  const int home = ring_.HomeOf(path);
  // Pull any existing entry for the path out of the shard before making
  // room, so the room-making sweep cannot claim the entry being merged.
  L2Entry entry;
  entry.home = home;
  entry.backed = backed;
  auto it = l2_entries_.find(path);
  if (it != l2_entries_.end()) {
    entry = std::move(it->second);
    entry.home = home;
    entry.backed = entry.backed && backed;
    l2_resident_ -= std::min(l2_resident_, entry.bytes);
    l2_entries_.erase(it);
    // Block-by-block refill: a stale image of the same block is replaced.
    for (auto p = entry.payloads.begin(); p != entry.payloads.end(); ++p) {
      if (p->block_name != payload.block_name) continue;
      entry.bytes -= std::min(entry.bytes, p->bytes);
      entry.payloads.erase(p);
      break;
    }
  }
  if (!MakeRoomLocked(home, entry.bytes + payload.bytes)) {
    if (!entry.payloads.empty()) {
      // Keep what the tier already had; only the new block bounces.
      l2_resident_ += entry.bytes;
      l2_entries_[path] = std::move(entry);
    }
    return Status::FailedPrecondition("shard full: " + path);
  }
  if (payload.place != home) l2_counters_.remote_bytes += payload.bytes;
  entry.bytes += payload.bytes;
  entry.last_tick = ++l2_tick_;
  entry.payloads.push_back(std::move(payload));
  l2_resident_ += entry.bytes;
  l2_entries_[path] = std::move(entry);
  l2_counters_.overflow_fills += 1;
  return Status::OK();
}

uint64_t TieredCacheManager::ShardCapLocked() const {
  size_t n = ring_.NumPlaces();
  return n == 0 ? 0 : l2_budget_ / static_cast<uint64_t>(n);
}

uint64_t TieredCacheManager::ShardUsageLocked(int home) const {
  uint64_t used = 0;
  for (const auto& [path, entry] : l2_entries_) {
    if (entry.home == home) used += entry.bytes;
  }
  return used;
}

std::map<std::string, TieredCacheManager::L2Entry>::iterator
TieredCacheManager::PickShardVictimLocked(int home) {
  // Coordinated eviction order: entries with another live replica (a DFS
  // copy, or a concurrent L1 entry) go first — dropping them loses
  // nothing. A last replica is claimed only when no replicated entry
  // remains, and the caller checkpoint-spills it before the drop. LRU
  // within each class; leased/pinned paths are never claimed (a leased L2
  // serve aborts eviction exactly like L1).
  auto best = l2_entries_.end();
  bool best_replicated = false;
  for (auto it = l2_entries_.begin(); it != l2_entries_.end(); ++it) {
    if (it->second.home != home) continue;
    if (LeasedOrPinned(it->first)) continue;
    bool replicated = it->second.backed || ResidentEntry(it->first);
    if (best == l2_entries_.end() ||
        (replicated && !best_replicated) ||
        (replicated == best_replicated &&
         it->second.last_tick < best->second.last_tick)) {
      best = it;
      best_replicated = replicated;
    }
  }
  return best;
}

void TieredCacheManager::DropLocked(
    std::map<std::string, L2Entry>::iterator it) {
  l2_resident_ -= std::min(l2_resident_, it->second.bytes);
  l2_entries_.erase(it);
}

bool TieredCacheManager::MakeRoomLocked(int home, uint64_t need) {
  uint64_t cap = ShardCapLocked();
  if (need > cap) return false;
  while (ShardUsageLocked(home) + need > cap) {
    auto it = PickShardVictimLocked(home);
    if (it == l2_entries_.end()) return false;
    if (!it->second.backed && !ResidentEntry(it->first)) {
      // Ring-wide last replica: the final fallback is still the
      // checkpoint spill — only then may the tier let go of it.
      Status st = l2_hooks_.spill
                      ? l2_hooks_.spill(it->first, it->second.payloads)
                      : Status::FailedPrecondition("no L2 spill hook");
      if (!st.ok()) return false;
      l2_counters_.spilled_last_replicas += 1;
    }
    DropLocked(it);
    l2_counters_.evictions += 1;
  }
  return true;
}

Status TieredCacheManager::PreserveVictim(const std::string& victim,
                                          bool backed, bool* spilled) {
  *spilled = false;
  int home = -1;
  {
    std::lock_guard<std::mutex> lock(l2_mu_);
    if (!enabled_ || ring_.empty()) {
      return memgov::CacheManager::PreserveVictim(victim, backed, spilled);
    }
    home = ring_.HomeOf(victim);
    demotions_inflight_ += 1;
  }
  struct InflightGuard {
    TieredCacheManager* mgr;
    ~InflightGuard() {
      {
        std::lock_guard<std::mutex> lock(mgr->l2_mu_);
        mgr->demotions_inflight_ -= 1;
      }
      mgr->demote_cv_.notify_all();
    }
  } guard{this};
  // Freeze outside the tier lock: the serialization reads cache blocks,
  // which re-enters the base manager (OnAccess).
  std::vector<BlockPayload> payloads;
  Status frozen = l2_hooks_.freeze
                      ? l2_hooks_.freeze(victim, &payloads)
                      : Status::FailedPrecondition("no L2 freeze hook");
  uint64_t bytes = 0;
  for (const BlockPayload& p : payloads) bytes += p.bytes;
  if (frozen.ok() && !payloads.empty() && bytes > 0) {
    std::lock_guard<std::mutex> lock(l2_mu_);
    if (enabled_ && ring_.Contains(home) && MakeRoomLocked(home, bytes)) {
      uint64_t remote = 0;
      for (const BlockPayload& p : payloads) {
        if (p.place != home) remote += p.bytes;
      }
      auto it = l2_entries_.find(victim);
      if (it != l2_entries_.end()) DropLocked(it);  // stale copy
      L2Entry entry;
      entry.home = home;
      entry.bytes = bytes;
      entry.backed = backed;
      entry.last_tick = ++l2_tick_;
      entry.payloads = std::move(payloads);
      l2_entries_[victim] = std::move(entry);
      l2_resident_ += bytes;
      l2_counters_.demotions += 1;
      l2_counters_.remote_bytes += remote;
      // Demotion preserved the data; the eviction proceeds with no
      // checkpoint spill.
      return Status::OK();
    }
  }
  // Shard full (and unevictable), freeze failed, or the tier raced off:
  // the base spill is the final fallback.
  return memgov::CacheManager::PreserveVictim(victim, backed, spilled);
}

void TieredCacheManager::OnEvictionAborted(const std::string& victim) {
  memgov::CacheManager::OnEvictionAborted(victim);
  std::lock_guard<std::mutex> lock(l2_mu_);
  auto it = l2_entries_.find(victim);
  if (it == l2_entries_.end()) return;
  DropLocked(it);
  l2_counters_.aborted_demotions += 1;
}

void TieredCacheManager::InvalidateL2(const std::string& path) {
  std::lock_guard<std::mutex> lock(l2_mu_);
  auto it = l2_entries_.find(path);
  if (it != l2_entries_.end()) DropLocked(it);
}

void TieredCacheManager::OnFill(const std::string& path, uint64_t add_bytes,
                                double fill_seconds) {
  memgov::CacheManager::OnFill(path, add_bytes, fill_seconds);
  // A fill from the evictor thread is part of an eviction's own hook
  // cascade and must not undo the demotion it belongs to; any other fill
  // supersedes the frozen copy (this is also how a promotion's thaw
  // finalizes the move).
  if (OnEvictorThread()) return;
  InvalidateL2(path);
}

void TieredCacheManager::OnDelete(const std::string& path) {
  memgov::CacheManager::OnDelete(path);
  // The evict half of a demotion notifies OnDelete on the evictor thread;
  // the copy it just made must survive. A real delete (user intent) drops
  // the subtree's tier copies with no spill — the data is dead.
  if (OnEvictorThread()) return;
  std::lock_guard<std::mutex> lock(l2_mu_);
  for (auto it = l2_entries_.lower_bound(path); it != l2_entries_.end();) {
    if (!InSubtree(it->first, path)) break;
    l2_resident_ -= std::min(l2_resident_, it->second.bytes);
    it = l2_entries_.erase(it);
  }
}

void TieredCacheManager::OnRename(const std::string& src,
                                  const std::string& dst) {
  memgov::CacheManager::OnRename(src, dst);
  std::lock_guard<std::mutex> lock(l2_mu_);
  std::vector<std::pair<std::string, L2Entry>> moved;
  for (auto it = l2_entries_.lower_bound(src); it != l2_entries_.end();) {
    if (!InSubtree(it->first, src)) break;
    std::string tail = it->first.substr(src.size());
    moved.emplace_back(dst + tail, std::move(it->second));
    it = l2_entries_.erase(it);
  }
  for (auto& [path, entry] : moved) {
    entry.home = ring_.HomeOf(path);  // the new name routes differently
    l2_entries_[path] = std::move(entry);
  }
}

Status TieredCacheManager::TryPromote(const std::string& path, bool* remote,
                                      uint64_t* bytes) {
  if (remote != nullptr) *remote = false;
  if (bytes != nullptr) *bytes = 0;
  // Lease before looking: waits out an in-flight eviction of `path` (a
  // concurrent demote lands its frozen copy first), then shields both
  // copies from any new claim while the move runs — the lease that makes
  // a leased L2 serve abort eviction exactly like L1.
  ReadLease lease = AcquireRead(path);
  std::vector<BlockPayload> payloads;
  int home = -1;
  uint64_t entry_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(l2_mu_);
    if (!enabled_) return Status::NotFound("L2 tier disabled");
    auto it = l2_entries_.find(path);
    if (it == l2_entries_.end()) {
      return Status::NotFound("not in L2: " + path);
    }
    payloads = it->second.payloads;  // copy: thaw runs outside the lock
    home = it->second.home;
    entry_bytes = it->second.bytes;
    it->second.last_tick = ++l2_tick_;
  }
  // Thaw re-enters the cache (PutBlock -> AdmitFill/OnFill); the tier
  // lock must not be held. The publish's OnFill drops the L2 entry — a
  // promotion is a move, not a copy.
  Status st = l2_hooks_.thaw
                  ? l2_hooks_.thaw(path, payloads)
                  : Status::FailedPrecondition("no L2 thaw hook");
  if (!st.ok()) return st;
  uint64_t rbytes = 0;
  for (const BlockPayload& p : payloads) {
    if (p.place != home) rbytes += p.bytes;
  }
  {
    std::lock_guard<std::mutex> lock(l2_mu_);
    l2_counters_.hits += 1;
    l2_counters_.remote_bytes += rbytes;
    // Belt and braces: a thaw that found every block already resident
    // publishes nothing, so OnFill may not have fired.
    auto it = l2_entries_.find(path);
    if (it != l2_entries_.end()) DropLocked(it);
  }
  if (remote != nullptr) *remote = rbytes > 0;
  if (bytes != nullptr) *bytes = entry_bytes;
  return Status::OK();
}

int TieredCacheManager::PromoteUnder(const std::string& dir,
                                     bool only_unbacked, uint64_t* bytes) {
  std::vector<std::string> candidates;
  {
    std::lock_guard<std::mutex> lock(l2_mu_);
    if (!enabled_) return 0;
    for (const auto& [path, entry] : l2_entries_) {
      if (!InSubtree(path, dir)) continue;
      if (only_unbacked && entry.backed) continue;
      candidates.push_back(path);
    }
  }
  int promoted = 0;
  for (const std::string& path : candidates) {
    uint64_t b = 0;
    if (TryPromote(path, nullptr, &b).ok()) {
      ++promoted;
      if (bytes != nullptr) *bytes += b;
    }
  }
  return promoted;
}

void TieredCacheManager::RingHeal(const std::vector<int>& dead) {
  std::lock_guard<std::mutex> lock(l2_mu_);
  if (!enabled_) return;
  bool removed = false;
  for (int d : dead) {
    if (!ring_.Contains(d)) continue;
    ring_.RemovePlace(d);
    l2_counters_.ring_heals += 1;
    removed = true;
  }
  if (!removed) return;
  // The dead shards' frozen copies died with their places: drop them with
  // no spill (there is nothing left to spill from) — the data heals
  // lazily from DFS or checkpoint on first touch. Survivors keep their
  // homes; consistent hashing moved no other key.
  for (auto it = l2_entries_.begin(); it != l2_entries_.end();) {
    if (!ring_.Contains(it->second.home)) {
      l2_resident_ -= std::min(l2_resident_, it->second.bytes);
      it = l2_entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void TieredCacheManager::DropAllLocked(bool spill_unbacked) {
  for (auto it = l2_entries_.begin(); it != l2_entries_.end();) {
    if (spill_unbacked && !it->second.backed && !ResidentEntry(it->first) &&
        l2_hooks_.spill) {
      if (l2_hooks_.spill(it->first, it->second.payloads).ok()) {
        l2_counters_.spilled_last_replicas += 1;
      }
    }
    l2_resident_ -= std::min(l2_resident_, it->second.bytes);
    it = l2_entries_.erase(it);
  }
}

void TieredCacheManager::EvictToBudget() {
  memgov::CacheManager::EvictToBudget();
  // Satellite determinism contract: the settle sweep is a quiesce point,
  // so in-flight demotions (claimed by a concurrent admission before the
  // sweep) must land or abort before it returns — a spill observer then
  // sees a settled tier, with governance on or off.
  std::unique_lock<std::mutex> lock(l2_mu_);
  demote_cv_.wait(lock, [this] { return demotions_inflight_ == 0; });
}

}  // namespace m3r::l2cache

#include "memgov/cache_manager.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace m3r::memgov {
namespace {

bool InSubtree(const std::string& path, const std::string& root) {
  if (path == root) return true;
  return path.size() > root.size() + 1 && path.starts_with(root) &&
         path[root.size()] == '/';
}

}  // namespace

thread_local int CacheManager::evictor_depth_ = 0;

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kLfu:
      return "lfu";
    case EvictionPolicy::kCost:
      return "cost";
  }
  return "lru";
}

CacheManager::CacheManager(MemoryGovernor* governor, Hooks hooks)
    : governor_(governor), hooks_(std::move(hooks)) {}

void CacheManager::Configure(EvictionPolicy policy, double high_watermark,
                             double low_watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
  high_watermark_ = std::clamp(high_watermark, 0.0, 1.0);
  low_watermark_ = std::clamp(low_watermark, 0.0, high_watermark_);
}

EvictionPolicy CacheManager::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

void CacheManager::Bump(uint64_t Counters::* field) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.*field += 1;
}

bool CacheManager::PinnedLocked(const std::string& path) const {
  for (const auto& [pin, count] : pins_) {
    if (count > 0 && InSubtree(path, pin)) return true;
  }
  return false;
}

bool CacheManager::LeasedLocked(const std::string& path) const {
  // A lease root covers the path when either contains the other: a lease
  // on a directory shields the files under it, and a lease on a file
  // shields it from a subtree-wide claim.
  for (const auto& [root, count] : leases_) {
    if (count > 0 && (InSubtree(path, root) || InSubtree(root, path))) {
      return true;
    }
  }
  auto it = fills_.find(path);
  return it != fills_.end() && it->second > 0;
}

bool CacheManager::EvictingUnderLocked(const std::string& root) const {
  for (const auto& [path, entry] : entries_) {
    if (entry.evicting && (InSubtree(path, root) || InSubtree(root, path))) {
      return true;
    }
  }
  return false;
}

CacheManager::ReadLease CacheManager::AcquireRead(const std::string& path) {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait out any eviction already claiming a covered entry — the reader
  // then sees the settled post-eviction state (a clean miss it can heal or
  // re-read from DFS) instead of a spill+delete in progress. The evictor
  // thread itself (spilling its victim) must not wait on its own claim.
  if (evictor_depth_ == 0) {
    evict_done_cv_.wait(lock, [&] { return !EvictingUnderLocked(path); });
  }
  leases_[path] += 1;
  leases_active_ += 1;
  return ReadLease(this, path);
}

void CacheManager::ReleaseRead(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = leases_.find(path);
    if (it != leases_.end() && --it->second <= 0) leases_.erase(it);
    if (leases_active_ > 0) leases_active_ -= 1;
  }
  evict_done_cv_.notify_all();
}

void CacheManager::ReadLease::Release() {
  if (mgr_ == nullptr) return;
  mgr_->ReleaseRead(path_);
  mgr_ = nullptr;
}

void CacheManager::BeginFill(const std::string& path) {
  std::unique_lock<std::mutex> lock(mu_);
  if (evictor_depth_ == 0) {
    evict_done_cv_.wait(lock, [&] {
      auto it = entries_.find(path);
      return it == entries_.end() || !it->second.evicting;
    });
  }
  fills_[path] += 1;
  leases_active_ += 1;
}

void CacheManager::EndFill(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = fills_.find(path);
    if (it != fills_.end() && --it->second <= 0) fills_.erase(it);
    if (leases_active_ > 0) leases_active_ -= 1;
  }
  evict_done_cv_.notify_all();
}

uint64_t CacheManager::LeasesActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leases_active_;
}

uint64_t CacheManager::EvictorInflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictor_inflight_;
}

uint64_t CacheManager::OverageLocked(uint64_t add_bytes) const {
  uint64_t budget = governor_->budget();
  if (budget == 0) return 0;
  uint64_t overage = 0;
  uint64_t cache_budget = governor_->ConsumerBudget(kConsumer);
  if (resident_bytes_ + add_bytes > cache_budget) {
    overage = resident_bytes_ + add_bytes - cache_budget;
  }
  // The total budget also binds: shrinking the cache is the only lever the
  // governor has, so pressure from other consumers lands here too.
  uint64_t total = governor_->TotalUsage();
  if (total + add_bytes > budget) {
    overage = std::max(overage, total + add_bytes - budget);
  }
  return std::min(overage, resident_bytes_);
}

std::string CacheManager::PickVictimLocked(
    const std::vector<std::string>& skip) const {
  std::string best;
  const Entry* best_entry = nullptr;
  for (const auto& [path, entry] : entries_) {
    if (entry.evicting || entry.bytes == 0) continue;
    if (std::find(skip.begin(), skip.end(), path) != skip.end()) continue;
    if (PinnedLocked(path)) continue;
    // Leased readers and unsealed fills make the entry unclaimable: this
    // is what keeps a partially filled file out of the victim pool.
    if (LeasedLocked(path)) continue;
    if (best_entry == nullptr) {
      best = path;
      best_entry = &entry;
      continue;
    }
    bool better = false;
    switch (policy_) {
      case EvictionPolicy::kLru:
        better = entry.last_tick < best_entry->last_tick;
        break;
      case EvictionPolicy::kLfu:
        better = entry.access_count < best_entry->access_count ||
                 (entry.access_count == best_entry->access_count &&
                  entry.last_tick < best_entry->last_tick);
        break;
      case EvictionPolicy::kCost: {
        // Value density: seconds of rebuild work protected per byte held.
        double lhs = entry.fill_seconds / static_cast<double>(entry.bytes);
        double rhs = best_entry->fill_seconds /
                     static_cast<double>(best_entry->bytes);
        better = lhs < rhs || (lhs == rhs &&
                               entry.last_tick < best_entry->last_tick);
        break;
      }
    }
    if (better) {
      best = path;
      best_entry = &entry;
    }
  }
  return best;
}

Status CacheManager::PreserveVictim(const std::string& victim, bool backed,
                                    bool* spilled) {
  *spilled = false;
  if (backed) return Status::OK();  // re-readable from the DFS; just drop
  Status st = hooks_.spill ? hooks_.spill(victim)
                           : Status::FailedPrecondition("no spill hook");
  *spilled = st.ok();
  return st;
}

void CacheManager::OnEvictionAborted(const std::string&) {}

bool CacheManager::LeasedOrPinned(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PinnedLocked(path) || LeasedLocked(path);
}

bool CacheManager::ResidentEntry(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  return it != entries_.end() && !it->second.evicting;
}

bool CacheManager::EvictOneVictim(std::vector<std::string>* skip) {
  std::string victim;
  uint64_t victim_bytes = 0;
  uint64_t claim_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victim = PickVictimLocked(*skip);
    if (victim.empty()) return false;
    Entry& e = entries_[victim];
    e.evicting = true;
    victim_bytes = e.bytes;
    claim_epoch = e.fill_epoch;
    evictor_inflight_ += 1;
  }
  // Hooks run unlocked: spill reads cache blocks (which notifies OnAccess)
  // and evict deletes them (which notifies OnDelete) — both re-enter mu_.
  // evictor_depth_ marks this thread so the spill's own reads of the
  // victim bypass the lease wait-out instead of deadlocking on the claim.
  ++evictor_depth_;
  bool backed = hooks_.has_backing ? hooks_.has_backing(victim) : true;
  bool need_spill = false;
  Status preserved = PreserveVictim(victim, backed, &need_spill);
  if (!preserved.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(victim);
      if (it != entries_.end()) it->second.evicting = false;
      skip->push_back(victim);  // unevictable this round, try the next one
      if (evictor_inflight_ > 0) evictor_inflight_ -= 1;
    }
    --evictor_depth_;
    evict_done_cv_.notify_all();
    return true;
  }
  // Revalidate the claim before publishing the eviction: the preserve step
  // ran unlocked, so the victim may have been pinned (a new job's inputs),
  // leased (a reader arrived), or refilled (epoch moved — the preserved
  // bytes no longer match the cache). Any of those aborts the eviction;
  // deleting anyway is exactly the lost-block race behind the historical
  // bench_cache SpMV divergence.
  bool valid = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(victim);
    valid = it != entries_.end() && !PinnedLocked(victim) &&
            !LeasedLocked(victim) && it->second.fill_epoch == claim_epoch;
    if (!valid) {
      if (it != entries_.end()) it->second.evicting = false;
      skip->push_back(victim);
      counters_.aborted_evictions += 1;
      if (evictor_inflight_ > 0) evictor_inflight_ -= 1;
    }
  }
  if (!valid) {
    // The entry stays live in L1; a tiered subclass drops the copy its
    // preserve step just made (redundant now, stale after a refill).
    OnEvictionAborted(victim);
    --evictor_depth_;
    evict_done_cv_.notify_all();
    return true;
  }
  if (hooks_.evict) (void)hooks_.evict(victim);
  --evictor_depth_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Normally the evict hook already notified OnDelete; clean up directly
    // in case it did not (e.g. no hook wired in a unit test).
    auto it = entries_.find(victim);
    if (it != entries_.end()) {
      uint64_t bytes = std::min(it->second.bytes, resident_bytes_);
      resident_bytes_ -= bytes;
      governor_->AddUsage(kConsumer, -static_cast<int64_t>(bytes));
      entries_.erase(it);
      InvalidateReuseLocked(victim);
    }
    counters_.evictions += 1;
    counters_.evicted_bytes += victim_bytes;
    if (need_spill) counters_.spilled_evictions += 1;
    if (evictor_inflight_ > 0) evictor_inflight_ -= 1;
  }
  evict_done_cv_.notify_all();
  return true;
}

bool CacheManager::EvictUntilFits(uint64_t add_bytes, uint64_t drain_to) {
  // One skip list for the whole loop: a victim whose preserve failed or
  // whose eviction aborted is not claimed (or spilled) a second time.
  std::vector<std::string> skip;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (OverageLocked(add_bytes) == 0 &&
          resident_bytes_ + add_bytes <= drain_to) {
        return true;
      }
    }
    if (EvictOneVictim(&skip)) continue;
    // No victim is eligible right now; the watermark drain stops here. If
    // the fill does not fit yet and another thread has entries claimed
    // mid-eviction, wait for it to finish and re-evaluate rather than
    // under-reporting eviction capacity.
    std::unique_lock<std::mutex> lock(mu_);
    if (OverageLocked(add_bytes) == 0) return true;
    if (evictor_inflight_ == 0) return false;
    evict_done_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

bool CacheManager::AdmitFill(const std::string& path, uint64_t add_bytes,
                             bool required) {
  if (!governor_->governed()) return true;
  uint64_t drain_to = std::numeric_limits<uint64_t>::max();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Growing an already-cached file in place (block-by-block fills) must
    // not race its own eviction: a partially published file is treated as
    // required for its remaining blocks.
    if (entries_.count(path) > 0) required = true;
    // Watermarks: a fill that would lift residency over `high` first
    // drains the cache so that it lands at or under `low`.
    double share = static_cast<double>(governor_->ConsumerBudget(kConsumer));
    if (static_cast<double>(resident_bytes_ + add_bytes) >
        high_watermark_ * share) {
      drain_to = static_cast<uint64_t>(low_watermark_ * share);
    }
  }
  if (add_bytes > governor_->ConsumerBudget(kConsumer)) {
    // The fill alone exceeds the cache's whole share: evicting everyone
    // else cannot make it fit, so don't churn the cache trying. Droppable
    // fills bounce; required ones land over budget and the job-boundary
    // sweep settles the excess.
    std::lock_guard<std::mutex> lock(mu_);
    if (required) {
      counters_.forced_fills += 1;
      return true;
    }
    counters_.rejected_fills += 1;
    return false;
  }
  if (EvictUntilFits(add_bytes, drain_to)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (required) {
    counters_.forced_fills += 1;
    return true;
  }
  counters_.rejected_fills += 1;
  return false;
}

void CacheManager::OnFill(const std::string& path, uint64_t add_bytes,
                          double fill_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[path];
  e.bytes += add_bytes;
  e.fill_seconds += fill_seconds;
  e.last_tick = ++tick_;
  e.fill_epoch += 1;
  resident_bytes_ += add_bytes;
  governor_->AddUsage(kConsumer, static_cast<int64_t>(add_bytes));
}

void CacheManager::OnAccess(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  it->second.access_count += 1;
  it->second.last_tick = ++tick_;
}

void CacheManager::OnDelete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  EraseSubtreeLocked(path);
}

void CacheManager::OnRename(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Entry>> moved;
  for (auto it = entries_.lower_bound(src); it != entries_.end();) {
    if (!InSubtree(it->first, src)) break;
    std::string tail = it->first.substr(src.size());
    moved.emplace_back(dst + tail, it->second);
    it = entries_.erase(it);
  }
  for (auto& [path, entry] : moved) entries_[path] = std::move(entry);
  InvalidateReuseLocked(src);
}

void CacheManager::Pin(const std::string& path) {
  std::unique_lock<std::mutex> lock(mu_);
  // Count the pin first so no new eviction can claim under the subtree,
  // then wait out claims already in flight: once Pin returns, nothing a
  // stale evictor had picked before the pin can still delete these blocks
  // (its post-spill revalidation sees the pin and aborts).
  pins_[path] += 1;
  if (evictor_depth_ == 0) {
    evict_done_cv_.wait(lock, [&] { return !EvictingUnderLocked(path); });
  }
}

void CacheManager::Unpin(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(path);
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

bool CacheManager::IsPinned(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PinnedLocked(path);
}

void CacheManager::RegisterReuse(const std::string& signature,
                                 const std::string& output_dir,
                                 std::vector<std::string> files) {
  std::lock_guard<std::mutex> lock(mu_);
  reuse_[signature] = ReuseEntry{output_dir, std::move(files)};
}

std::optional<std::string> CacheManager::LookupReuse(
    const std::string& signature) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = reuse_.find(signature);
  if (it == reuse_.end()) return std::nullopt;
  for (const auto& file : it->second.files) {
    auto e = entries_.find(file);
    if (e == entries_.end() || e->second.evicting) {
      reuse_.erase(it);  // stale: a constituent file was evicted
      return std::nullopt;
    }
  }
  counters_.reuse_hits += 1;
  return it->second.output_dir;
}

void CacheManager::EvictToBudget() {
  (void)EvictUntilFits(0, std::numeric_limits<uint64_t>::max());
}

void CacheManager::Reconcile(
    const std::function<uint64_t(const std::string&)>& bytes_of) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    uint64_t actual = bytes_of(it->first);
    uint64_t tracked = it->second.bytes;
    if (actual != tracked) {
      int64_t delta =
          static_cast<int64_t>(actual) - static_cast<int64_t>(tracked);
      governor_->AddUsage(kConsumer, delta);
      resident_bytes_ = static_cast<uint64_t>(
          std::max<int64_t>(0, static_cast<int64_t>(resident_bytes_) + delta));
      it->second.bytes = actual;
    }
    if (actual == 0) {
      InvalidateReuseLocked(it->first);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t CacheManager::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

size_t CacheManager::EntryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheManager::Counters CacheManager::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void CacheManager::EraseSubtreeLocked(const std::string& path) {
  uint64_t removed = 0;
  for (auto it = entries_.lower_bound(path); it != entries_.end();) {
    if (!InSubtree(it->first, path)) break;
    removed += it->second.bytes;
    it = entries_.erase(it);
  }
  if (removed > 0) {
    removed = std::min(removed, resident_bytes_);
    resident_bytes_ -= removed;
    governor_->AddUsage(kConsumer, -static_cast<int64_t>(removed));
  }
  InvalidateReuseLocked(path);
}

void CacheManager::InvalidateReuseLocked(const std::string& path) {
  for (auto it = reuse_.begin(); it != reuse_.end();) {
    bool dead = InSubtree(it->second.output_dir, path) ||
                InSubtree(path, it->second.output_dir);
    if (!dead) {
      for (const auto& file : it->second.files) {
        if (InSubtree(file, path) || InSubtree(path, file)) {
          dead = true;
          break;
        }
      }
    }
    it = dead ? reuse_.erase(it) : ++it;
  }
}

}  // namespace m3r::memgov

#ifndef M3R_MEMGOV_MEMORY_GOVERNOR_H_
#define M3R_MEMGOV_MEMORY_GOVERNOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace m3r::memgov {

/// Per-place memory meter (DESIGN.md §11): every long-lived byte holder in
/// an M3R instance — the input/output cache, the checkpoint spill queue,
/// the shuffle buffer pool, the map-side hash-combine tables — registers
/// as a named consumer, and the governor compares their sum against a
/// configurable budget (m3r.memory.budget.mb; 0 = ungoverned).
///
/// Two registration styles:
///  - pushed gauges (SetUsage/AddUsage): the consumer reports every change
///    itself. Used by the cache manager, whose usage gates admission and
///    must be exact at decision time.
///  - polled gauges (RegisterGauge): the governor reads a callback when it
///    computes totals. Used by consumers whose bookkeeping already exists
///    elsewhere (BufferPool::ResidentBytes, the hash-combine byte gauge).
///
/// Per-consumer shares (SetShare, a fraction of the budget) bound what a
/// single consumer may hold; only the cache has one (m3r.memory.share.cache)
/// and enforces it by evicting — other consumers are metered so the cache's
/// admission decisions see the whole heap, and bound themselves through
/// their own pre-existing budgets (e.g. m3r.map.hash.combine.memory.mb).
class MemoryGovernor {
 public:
  using GaugeFn = std::function<uint64_t()>;

  /// Total budget in bytes; 0 disables governance (admission always
  /// succeeds, no watermark eviction).
  void SetBudget(uint64_t bytes);
  uint64_t budget() const;
  bool governed() const { return budget() > 0; }

  /// Fraction of the budget consumer `name` may hold (default 1.0 — only
  /// the total bounds it).
  void SetShare(const std::string& name, double share);
  /// Byte budget for one consumer: budget() * share, or UINT64_MAX when
  /// ungoverned.
  uint64_t ConsumerBudget(const std::string& name) const;

  void SetUsage(const std::string& name, uint64_t bytes);
  void AddUsage(const std::string& name, int64_t delta);
  void RegisterGauge(const std::string& name, GaugeFn fn);

  /// Current usage of one consumer (pushed value or polled gauge).
  uint64_t Usage(const std::string& name) const;
  /// Sum over all consumers. Updates the peak watermark as a side effect.
  uint64_t TotalUsage() const;
  /// Highest TotalUsage ever observed (at SetUsage/AddUsage/TotalUsage
  /// sampling points).
  uint64_t PeakUsage() const;
  /// Restarts peak tracking from the current usage (job boundary).
  void ResetPeak();

  /// Per-consumer usage snapshot (gauges polled), for metrics export.
  std::map<std::string, uint64_t> Snapshot() const;

  // --- Tenant quotas (serving front end, DESIGN.md §12) ---
  // A tenant is an accounting identity the JobServer registers while that
  // tenant has jobs queued or running. Its quota is a fraction of the
  // budget: explicit (JobServer::Options::tenant_quotas) or automatic —
  // tenants without an explicit quota split the unreserved remainder
  // (1 - sum of explicit quotas) evenly, re-split on every join/leave.
  // Quotas are mirrored into the share table as "tenant.<name>" so
  // Snapshot/ConsumerBudget expose them alongside consumer shares; the
  // server additionally clamps the cache share of a job it dispatches to
  // its tenant's quota, which is what makes the quota bind.

  /// Registers `tenant`; explicit_quota in (0,1] pins its fraction, 0
  /// requests an automatic (rebalanced) share. Idempotent re-join updates
  /// the explicit quota.
  void TenantJoin(const std::string& tenant, double explicit_quota = 0);
  /// Unregisters `tenant` and rebalances the automatic tenants.
  void TenantLeave(const std::string& tenant);
  /// Current quota fraction for `tenant` (1.0 when unknown — an
  /// unregistered tenant is unconstrained, like an unset share).
  double TenantQuota(const std::string& tenant) const;
  /// All registered tenants with their current (rebalanced) quotas.
  std::map<std::string, double> TenantQuotas() const;

 private:
  uint64_t TotalUsageLocked() const;
  void SamplePeakLocked() const;
  double TenantQuotaLocked(const std::string& tenant) const;
  void RebalanceTenantsLocked();

  mutable std::mutex mu_;
  uint64_t budget_ = 0;
  std::map<std::string, double> shares_;
  /// tenant -> explicit quota fraction (0 = automatic).
  std::map<std::string, double> tenants_;
  std::map<std::string, uint64_t> pushed_;
  std::map<std::string, GaugeFn> gauges_;
  mutable uint64_t peak_ = 0;
};

}  // namespace m3r::memgov

#endif  // M3R_MEMGOV_MEMORY_GOVERNOR_H_

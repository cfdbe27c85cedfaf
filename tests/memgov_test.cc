// Unit tests for the memory-governance subsystem (src/memgov): governor
// accounting and shares, cache-manager admission/eviction/pinning, the
// lru/lfu/cost policy behavior on a scripted access trace, the reuse
// registry, and the lineage signature.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/job_conf.h"
#include "memgov/cache_manager.h"
#include "memgov/lineage.h"
#include "memgov/memory_governor.h"

namespace m3r::memgov {
namespace {

TEST(MemoryGovernor, BudgetSharesAndUsage) {
  MemoryGovernor gov;
  EXPECT_FALSE(gov.governed());
  EXPECT_EQ(gov.ConsumerBudget("cache"),
            std::numeric_limits<uint64_t>::max());

  gov.SetBudget(1000);
  EXPECT_TRUE(gov.governed());
  EXPECT_EQ(gov.ConsumerBudget("cache"), 1000u);
  gov.SetShare("cache", 0.6);
  EXPECT_EQ(gov.ConsumerBudget("cache"), 600u);
  EXPECT_EQ(gov.ConsumerBudget("other"), 1000u);

  gov.SetUsage("cache", 400);
  gov.AddUsage("cache", 100);
  EXPECT_EQ(gov.Usage("cache"), 500u);
  gov.AddUsage("cache", -700);  // clamps at zero
  EXPECT_EQ(gov.Usage("cache"), 0u);

  uint64_t polled = 250;
  gov.RegisterGauge("pool", [&polled]() { return polled; });
  gov.SetUsage("cache", 300);
  EXPECT_EQ(gov.Usage("pool"), 250u);
  EXPECT_EQ(gov.TotalUsage(), 550u);
  polled = 50;
  EXPECT_EQ(gov.TotalUsage(), 350u);
  EXPECT_GE(gov.PeakUsage(), 550u);
  gov.ResetPeak();
  EXPECT_LE(gov.PeakUsage(), 350u);

  auto snap = gov.Snapshot();
  EXPECT_EQ(snap.at("cache"), 300u);
  EXPECT_EQ(snap.at("pool"), 50u);
}

TEST(EvictionPolicyNames, ParseAndPrint) {
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kCost), "cost");
}

/// Harness: a manager over a mirror "store" (a set of resident paths).
/// The evict hook drops the path from the mirror; every file is
/// DFS-backed, so no spill is needed. The hooks run on whichever thread
/// admits a fill, so the mirror state is mutex-guarded.
struct Harness {
  MemoryGovernor gov;
  mutable std::mutex mu;
  std::set<std::string> resident;
  std::vector<std::string> evicted;
  std::vector<std::string> spilled;
  std::atomic<bool> backed{true};
  std::function<void(const std::string&)> spill_observer;
  std::unique_ptr<CacheManager> mgr;

  explicit Harness(uint64_t budget) {
    gov.SetBudget(budget);
    CacheManager::Hooks hooks;
    hooks.spill = [this](const std::string& p) {
      {
        std::lock_guard<std::mutex> lock(mu);
        spilled.push_back(p);
      }
      // Mid-eviction interleaving hook: runs unlocked on the evictor
      // thread, exactly where a concurrent reader or filler lands while
      // the claim's spill is in flight.
      if (spill_observer) spill_observer(p);
      return Status::OK();
    };
    hooks.evict = [this](const std::string& p) {
      {
        std::lock_guard<std::mutex> lock(mu);
        resident.erase(p);
        evicted.push_back(p);
      }
      mgr->OnDelete(p);
      return Status::OK();
    };
    hooks.has_backing = [this](const std::string&) { return backed.load(); };
    mgr = std::make_unique<CacheManager>(&gov, hooks);
    // Watermarks at the budget line: an admission evicts little more than
    // its fill needs, so scripted traces evict one victim at a time.
    mgr->Configure(EvictionPolicy::kLru, 1.0, 0.99);
  }

  void Insert(const std::string& p) {
    std::lock_guard<std::mutex> lock(mu);
    resident.insert(p);
  }
  void Erase(const std::string& p) {
    std::lock_guard<std::mutex> lock(mu);
    resident.erase(p);
  }
  std::vector<std::string> Evicted() const {
    std::lock_guard<std::mutex> lock(mu);
    return evicted;
  }
  std::vector<std::string> Spilled() const {
    std::lock_guard<std::mutex> lock(mu);
    return spilled;
  }

  /// One access in a scripted trace: a hit touches the entry, a miss
  /// requests (droppable) admission and fills on success. AdmitFill is
  /// called without the harness lock: it may evict, re-entering the hooks.
  bool Access(const std::string& p, uint64_t bytes, double fill_seconds) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (resident.count(p)) {
        mgr->OnAccess(p);
        mgr->RecordHit();
        return true;
      }
    }
    mgr->RecordMiss();
    if (!mgr->AdmitFill(p, bytes, /*required=*/false)) return false;
    mgr->OnFill(p, bytes, fill_seconds);
    Insert(p);
    return false;
  }
};

TEST(CacheManager, AdmissionEvictsToFitAndForcesRequiredFills) {
  Harness h(100);
  ASSERT_TRUE(h.mgr->AdmitFill("/a", 60, false));
  h.mgr->OnFill("/a", 60, 0.1);
  h.Insert("/a");
  EXPECT_EQ(h.mgr->ResidentBytes(), 60u);

  // 60 more does not fit: /a is evicted to make room.
  ASSERT_TRUE(h.mgr->AdmitFill("/b", 60, false));
  h.mgr->OnFill("/b", 60, 0.1);
  h.Insert("/b");
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/a"});
  EXPECT_EQ(h.mgr->ResidentBytes(), 60u);
  EXPECT_EQ(h.mgr->counters().evictions, 1u);
  EXPECT_EQ(h.mgr->counters().evicted_bytes, 60u);
  // Backed files are dropped without spilling.
  EXPECT_TRUE(h.Spilled().empty());

  // A fill larger than the whole budget: droppable is rejected even after
  // evicting everything; required is admitted and counted as forced.
  EXPECT_FALSE(h.mgr->AdmitFill("/huge", 500, false));
  EXPECT_EQ(h.mgr->counters().rejected_fills, 1u);
  ASSERT_TRUE(h.mgr->AdmitFill("/out", 500, true));
  h.mgr->OnFill("/out", 500, 0.1);
  h.Insert("/out");
  EXPECT_GE(h.mgr->counters().forced_fills, 1u);
}

TEST(CacheManager, UnbackedVictimsSpillBeforeEviction) {
  Harness h(100);
  h.backed.store(false);
  ASSERT_TRUE(h.mgr->AdmitFill("/t/a", 80, true));
  h.mgr->OnFill("/t/a", 80, 0.1);
  h.Insert("/t/a");
  ASSERT_TRUE(h.mgr->AdmitFill("/t/b", 80, false));
  EXPECT_EQ(h.Spilled(), std::vector<std::string>{"/t/a"});
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/t/a"});
  EXPECT_EQ(h.mgr->counters().spilled_evictions, 1u);
}

// ---------------------------------------------------------------------------
// Deterministic regressions for the fill/evict race behind the historical
// bench_cache SpMV divergence: the read-lease/epoch protocol must make a
// claimed eviction abort — never delete — when a lease, an open fill, a
// pin, or a refill lands while the claim's spill runs unlocked.
// ---------------------------------------------------------------------------

TEST(CacheManager, ReadLeaseBlocksEvictionUntilReleased) {
  Harness h(100);
  ASSERT_TRUE(h.mgr->AdmitFill("/hot", 60, false));
  h.mgr->OnFill("/hot", 60, 0.1);
  h.Insert("/hot");
  {
    CacheManager::ReadLease lease = h.mgr->AcquireRead("/hot");
    EXPECT_EQ(h.mgr->LeasesActive(), 1u);
    // The only victim is leased: unclaimable, so the droppable fill is
    // bypassed and the leased file survives untouched.
    EXPECT_FALSE(h.mgr->AdmitFill("/b", 60, false));
    EXPECT_TRUE(h.Evicted().empty());
    EXPECT_EQ(h.mgr->counters().aborted_evictions, 0u);
  }
  EXPECT_EQ(h.mgr->LeasesActive(), 0u);
  EXPECT_TRUE(h.mgr->AdmitFill("/b", 60, false));
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/hot"});
}

TEST(CacheManager, OpenFillSealsFileAgainstEviction) {
  Harness h(100);
  // Bracket a block-by-block fill: while the fill is open the file's
  // epoch is unsealed and the evictor must not claim it — a partially
  // published file is never a victim, not even of its own admissions.
  h.mgr->BeginFill("/f");
  ASSERT_TRUE(h.mgr->AdmitFill("/f", 60, true));
  h.mgr->OnFill("/f", 60, 0.1);
  h.Insert("/f");
  EXPECT_FALSE(h.mgr->AdmitFill("/g", 60, false));
  EXPECT_TRUE(h.Evicted().empty());
  h.mgr->EndFill("/f");
  EXPECT_TRUE(h.mgr->AdmitFill("/g", 60, false));
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/f"});
}

TEST(CacheManager, RefillDuringSpillAbortsEviction) {
  Harness h(100);
  ASSERT_TRUE(h.mgr->AdmitFill("/v", 60, true));
  h.mgr->OnFill("/v", 60, 0.1);
  h.Insert("/v");
  h.backed.store(false);  // unbacked: eviction must spill first
  // While the claim's spill runs unlocked, a refill of the victim lands
  // and moves its epoch: the spilled bytes no longer match the cache, so
  // the post-spill revalidation must abort the eviction.
  h.spill_observer = [&](const std::string& p) {
    if (p == "/v") h.mgr->OnFill("/v", 0, 0.0);
  };
  EXPECT_FALSE(h.mgr->AdmitFill("/b", 60, false));
  EXPECT_EQ(h.Spilled(), std::vector<std::string>{"/v"});
  EXPECT_TRUE(h.Evicted().empty());
  EXPECT_EQ(h.mgr->counters().aborted_evictions, 1u);
  EXPECT_EQ(h.mgr->counters().evictions, 0u);
  EXPECT_EQ(h.mgr->ResidentBytes(), 60u);
}

TEST(CacheManager, PinDuringSpillAbortsEviction) {
  Harness h(100);
  ASSERT_TRUE(h.mgr->AdmitFill("/v", 60, true));
  h.mgr->OnFill("/v", 60, 0.1);
  h.Insert("/v");
  h.backed.store(false);
  // A new job pins its inputs while the stale claim's spill is in
  // flight; the revalidation sees the pin and aborts (pin once only, so
  // the post-unpin eviction below is not re-blocked).
  std::atomic<bool> pinned{false};
  h.spill_observer = [&](const std::string& p) {
    if (p == "/v" && !pinned.exchange(true)) h.mgr->Pin("/v");
  };
  EXPECT_FALSE(h.mgr->AdmitFill("/b", 60, false));
  EXPECT_TRUE(h.Evicted().empty());
  EXPECT_EQ(h.mgr->counters().aborted_evictions, 1u);

  h.mgr->Unpin("/v");
  EXPECT_TRUE(h.mgr->AdmitFill("/b", 60, false));
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/v"});
  EXPECT_EQ(h.mgr->counters().spilled_evictions, 1u);
}

TEST(CacheManager, PinningShieldsSubtreesFromEviction) {
  Harness h(100);
  ASSERT_TRUE(h.mgr->AdmitFill("/in/part-0", 50, false));
  h.mgr->OnFill("/in/part-0", 50, 0.1);
  h.Insert("/in/part-0");
  h.mgr->Pin("/in");  // directory pin covers the file
  EXPECT_TRUE(h.mgr->IsPinned("/in/part-0"));

  // The only victim is pinned: a droppable over-budget fill is rejected.
  EXPECT_FALSE(h.mgr->AdmitFill("/x", 80, false));
  EXPECT_TRUE(h.Evicted().empty());

  h.mgr->Pin("/in");
  h.mgr->Unpin("/in");  // counted: still pinned after one unpin
  EXPECT_TRUE(h.mgr->IsPinned("/in/part-0"));
  h.mgr->Unpin("/in");
  EXPECT_FALSE(h.mgr->IsPinned("/in/part-0"));
  EXPECT_TRUE(h.mgr->AdmitFill("/x", 80, false));
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/in/part-0"});
}

TEST(CacheManager, ReconcileRederivesResidencyAfterExternalEviction) {
  Harness h(1000);
  for (const char* p : {"/a", "/b", "/c"}) {
    ASSERT_TRUE(h.mgr->AdmitFill(p, 100, false));
    h.mgr->OnFill(p, 100, 0.1);
    h.Insert(p);
  }
  // A place crash dropped /b behind the manager's back and halved /c.
  h.Erase("/b");
  h.mgr->Reconcile([](const std::string& p) -> uint64_t {
    if (p == "/a") return 100;
    if (p == "/c") return 50;
    return 0;
  });
  EXPECT_EQ(h.mgr->EntryCount(), 2u);
  EXPECT_EQ(h.mgr->ResidentBytes(), 150u);
  EXPECT_EQ(h.gov.Usage(CacheManager::kConsumer), 150u);
}

/// Fills /w/a and /w/b (40 bytes each of a 100-byte budget) with the
/// harness's watermarks at the budget line, then tightens them to 0.6 and
/// 0.5. Nothing evicts yet: watermarks act only at the next admission.
void FillThenTightenWatermarks(Harness& h) {
  for (const char* p : {"/w/a", "/w/b"}) {
    ASSERT_TRUE(h.mgr->AdmitFill(p, 40, false));
    h.mgr->OnFill(p, 40, 0.1);
    h.Insert(p);
  }
  h.mgr->Configure(EvictionPolicy::kLru, 0.6, 0.5);
  ASSERT_EQ(h.mgr->ResidentBytes(), 80u);
  ASSERT_TRUE(h.Evicted().empty());
}

/// Admits a 10-byte probe fill, which fits the budget (80 + 10 <= 100) but
/// crosses the high watermark (90 > 60). The probe itself is not published,
/// so residency afterwards is what the admission left behind.
void AdmitProbe(Harness& h, const std::string& probe) {
  ASSERT_TRUE(h.mgr->AdmitFill(probe, 10, false));
}

TEST(CacheManager, AdmissionOverHighWatermarkDrainsToLow) {
  Harness h(100);
  FillThenTightenWatermarks(h);
  // Draining so that the probe lands at or under low (50): /w/a goes,
  // leaving 40 + 10 = 50.
  AdmitProbe(h, "/p");
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/w/a"});
  EXPECT_EQ(h.mgr->ResidentBytes(), 40u);
  h.mgr->OnFill("/p", 10, 0.1);
  EXPECT_LE(h.mgr->ResidentBytes(), 50u);
  // An admission that stays under high (50 + 5 <= 60) evicts nothing.
  ASSERT_TRUE(h.mgr->AdmitFill("/q", 5, false));
  EXPECT_EQ(h.Evicted().size(), 1u);
}

TEST(CacheManager, AdmissionOverHighWatermarkSparesShieldedEntries) {
  Harness h(100);
  CacheManager::ReadLease lease = h.mgr->AcquireRead("/w/b");
  h.mgr->Pin("/w/a");
  h.mgr->BeginFill("/w/c");
  for (const char* p : {"/w/a", "/w/b", "/w/c"}) {
    ASSERT_TRUE(h.mgr->AdmitFill(p, 25, false));
    h.mgr->OnFill(p, 25, 0.1);
    h.Insert(p);
  }
  // Every entry is pinned, leased or mid-fill: the probe crosses high
  // (85 > 60) but nothing is claimable, so it evicts nothing, and it is
  // still admitted because it fits the budget.
  h.mgr->Configure(EvictionPolicy::kLru, 0.6, 0.5);
  AdmitProbe(h, "/p");
  EXPECT_TRUE(h.Evicted().empty());
  EXPECT_EQ(h.mgr->ResidentBytes(), 75u);
  EXPECT_EQ(h.mgr->counters().aborted_evictions, 0u);
  h.mgr->EndFill("/w/c");
}

/// Shields /w with `shield`, lets a crossing admission find nothing
/// claimable, lifts the shield with `lift`, and expects the very next
/// admission to drain to the low watermark.
void ExpectNextAdmissionDrainsAfter(Harness& h,
                                    const std::function<void()>& shield,
                                    const std::function<void()>& lift) {
  shield();
  FillThenTightenWatermarks(h);
  AdmitProbe(h, "/p");
  ASSERT_TRUE(h.Evicted().empty());
  lift();
  AdmitProbe(h, "/q");
  EXPECT_EQ(h.Evicted(), std::vector<std::string>{"/w/a"});
  EXPECT_LE(h.mgr->ResidentBytes() + 10, 50u);
}

TEST(CacheManager, FirstAdmissionAfterUnpinDrains) {
  Harness h(100);
  ExpectNextAdmissionDrainsAfter(h, [&] { h.mgr->Pin("/w"); },
                                 [&] { h.mgr->Unpin("/w"); });
}

TEST(CacheManager, FirstAdmissionAfterLeaseReleaseDrains) {
  Harness h(100);
  CacheManager::ReadLease lease;
  ExpectNextAdmissionDrainsAfter(
      h, [&] { lease = h.mgr->AcquireRead("/w"); }, [&] { lease.Release(); });
}

TEST(CacheManager, FirstAdmissionAfterEndFillDrains) {
  Harness h(100);
  ExpectNextAdmissionDrainsAfter(
      h,
      [&] {
        h.mgr->BeginFill("/w/a");
        h.mgr->BeginFill("/w/b");
      },
      [&] {
        h.mgr->EndFill("/w/a");
        h.mgr->EndFill("/w/b");
      });
}

/// Scripted trace: a hot file re-touched every round through a stream of
/// one-shot scan files, under a budget that fits only two files.
/// LRU forgets the hot file (the scans push it out); LFU's frequency
/// count keeps it resident.
double HotScanTraceHitRate(EvictionPolicy policy) {
  Harness h(100);
  h.mgr->Configure(policy, 1.0, 0.99);
  int hits = 0, accesses = 0;
  // Prime the hot file with a burst of touches.
  for (int i = 0; i < 4; ++i) {
    h.Access("/hot", 40, 0.1);
  }
  for (int round = 0; round < 10; ++round) {
    for (int s = 0; s < 3; ++s) {
      ++accesses;
      if (h.Access("/scan" + std::to_string(round * 3 + s), 40, 0.1)) ++hits;
    }
    ++accesses;
    if (h.Access("/hot", 40, 0.1)) ++hits;
  }
  return static_cast<double>(hits) / accesses;
}

TEST(EvictionPolicies, LfuRetainsHotFileWhereLruThrashes) {
  double lru = HotScanTraceHitRate(EvictionPolicy::kLru);
  double lfu = HotScanTraceHitRate(EvictionPolicy::kLfu);
  EXPECT_GT(lfu, lru);
  // LFU keeps every /hot re-touch a hit (10 of 40 accesses).
  EXPECT_GE(lfu, 0.25);
  // LRU loses /hot to the scans every round.
  EXPECT_LE(lru, 0.01);
}

/// Scripted trace for the cost policy: an expensive-to-rebuild file is
/// re-touched through a scan stream of same-size but cheap files. The
/// cost policy evicts low fill-cost-per-byte victims first and keeps the
/// expensive file; LRU evicts by recency and loses it.
double CostTraceHitRate(EvictionPolicy policy) {
  Harness h(100);
  h.mgr->Configure(policy, 1.0, 0.99);
  int hits = 0, accesses = 0;
  h.Access("/expensive", 40, 10.0);
  for (int round = 0; round < 10; ++round) {
    for (int s = 0; s < 3; ++s) {
      ++accesses;
      if (h.Access("/cheap" + std::to_string(round * 3 + s), 40, 0.001)) {
        ++hits;
      }
    }
    ++accesses;
    if (h.Access("/expensive", 40, 10.0)) ++hits;
  }
  return static_cast<double>(hits) / accesses;
}

TEST(EvictionPolicies, CostKeepsExpensiveRebuildsWhereLruEvictsThem) {
  double lru = CostTraceHitRate(EvictionPolicy::kLru);
  double cost = CostTraceHitRate(EvictionPolicy::kCost);
  EXPECT_GT(cost, lru);
  EXPECT_GE(cost, 0.25);
}

TEST(CacheManager, ReuseRegistryInvalidatesWhenFilesLeaveTheCache) {
  Harness h(1000);
  ASSERT_TRUE(h.mgr->AdmitFill("/out/part-0", 10, true));
  h.mgr->OnFill("/out/part-0", 10, 0.1);
  h.mgr->RegisterReuse("sig1", "/out", {"/out/part-0"});

  auto found = h.mgr->LookupReuse("sig1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, "/out");
  EXPECT_EQ(h.mgr->counters().reuse_hits, 1u);
  EXPECT_FALSE(h.mgr->LookupReuse("other").has_value());

  // Rename keeps entries tracked under the new path; the old registration
  // no longer resolves.
  h.mgr->OnRename("/out", "/moved");
  EXPECT_FALSE(h.mgr->LookupReuse("sig1").has_value());
  EXPECT_EQ(h.mgr->ResidentBytes(), 10u);

  h.mgr->RegisterReuse("sig2", "/moved", {"/moved/part-0"});
  ASSERT_TRUE(h.mgr->LookupReuse("sig2").has_value());
  h.mgr->OnDelete("/moved/part-0");
  EXPECT_FALSE(h.mgr->LookupReuse("sig2").has_value());
}

api::JobConf BaseJob() {
  api::JobConf conf;
  conf.AddInputPath("/in");
  conf.SetOutputPath("/temp-out");
  conf.Set("mapred.mapper.class", "WordCountMapper");
  conf.Set("mapred.reducer.class", "WordCountReducer");
  conf.SetNumReduceTasks(3);
  return conf;
}

TEST(Lineage, SignatureIgnoresVolatileKeysOnly) {
  auto version = [](const std::string&) -> uint64_t { return 7; };
  api::JobConf a = BaseJob();
  std::string sig = LineageSignature(a, version);
  EXPECT_EQ(sig, LineageSignature(a, version));

  // Volatile keys (job name, output dir, governance knobs) do not change
  // the signature.
  api::JobConf b = BaseJob();
  b.SetJobName("renamed");
  b.SetOutputPath("/temp-other");
  b.Set(api::conf::kMemoryBudgetMb, "64");
  b.Set(api::conf::kCachePolicy, "cost");
  b.Set(api::conf::kCacheReuse, "exact");
  EXPECT_EQ(sig, LineageSignature(b, version));

  // Semantic changes do.
  api::JobConf c = BaseJob();
  c.Set("mapred.reducer.class", "OtherReducer");
  EXPECT_NE(sig, LineageSignature(c, version));
  api::JobConf d = BaseJob();
  d.SetNumReduceTasks(4);
  EXPECT_NE(sig, LineageSignature(d, version));
  api::JobConf e = BaseJob();
  e.AddInputPath("/in2");
  EXPECT_NE(sig, LineageSignature(e, version));

  // A rewritten input (new version stamp) invalidates too.
  auto version2 = [](const std::string&) -> uint64_t { return 8; };
  EXPECT_NE(sig, LineageSignature(a, version2));

  EXPECT_TRUE(IsVolatileLineageKey(api::conf::kJobName));
  EXPECT_TRUE(IsVolatileLineageKey(api::conf::kOutputDir));
  EXPECT_TRUE(IsVolatileLineageKey("m3r.memory.budget.mb"));
  EXPECT_FALSE(IsVolatileLineageKey("mapred.mapper.class"));
}

TEST(MemoryGovernor, TenantQuotasExplicitAndAutomatic) {
  MemoryGovernor gov;
  // Unknown tenants are unconstrained.
  EXPECT_DOUBLE_EQ(gov.TenantQuota("nobody"), 1.0);

  gov.TenantJoin("pinned", 0.5);
  gov.TenantJoin("auto1");
  gov.TenantJoin("auto2");
  // Explicit quota is pinned; automatic tenants split the remainder.
  EXPECT_DOUBLE_EQ(gov.TenantQuota("pinned"), 0.5);
  EXPECT_DOUBLE_EQ(gov.TenantQuota("auto1"), 0.25);
  EXPECT_DOUBLE_EQ(gov.TenantQuota("auto2"), 0.25);

  // A leave rebalances the automatic split.
  gov.TenantLeave("auto2");
  EXPECT_DOUBLE_EQ(gov.TenantQuota("auto1"), 0.5);
  auto quotas = gov.TenantQuotas();
  EXPECT_EQ(quotas.size(), 2u);
  EXPECT_EQ(quotas.count("auto2"), 0u);

  gov.TenantLeave("pinned");
  gov.TenantLeave("auto1");
  EXPECT_TRUE(gov.TenantQuotas().empty());
  EXPECT_DOUBLE_EQ(gov.TenantQuota("auto1"), 1.0);
}

TEST(MemoryGovernor, TenantQuotasMirrorIntoSharesAndBudgets) {
  MemoryGovernor gov;
  gov.SetBudget(1000);
  gov.TenantJoin("heavy", 0.6);
  gov.TenantJoin("light", 0.2);
  // Quotas are mirrored as "tenant.<name>" shares, so consumer budgets
  // and snapshots see them like any other share.
  EXPECT_EQ(gov.ConsumerBudget("tenant.heavy"), 600u);
  EXPECT_EQ(gov.ConsumerBudget("tenant.light"), 200u);

  gov.TenantLeave("heavy");
  // The stale mirrored share is erased, not left at its old value.
  EXPECT_EQ(gov.ConsumerBudget("tenant.heavy"), 1000u);
}

TEST(MemoryGovernor, ExplicitQuotasOversubscribedClampAutomaticToZero) {
  MemoryGovernor gov;
  gov.TenantJoin("a", 0.8);
  gov.TenantJoin("b", 0.7);
  gov.TenantJoin("auto");
  // Explicit quotas stay as pinned; the automatic tenant gets the
  // (empty) remainder rather than a negative share.
  EXPECT_DOUBLE_EQ(gov.TenantQuota("a"), 0.8);
  EXPECT_DOUBLE_EQ(gov.TenantQuota("b"), 0.7);
  EXPECT_DOUBLE_EQ(gov.TenantQuota("auto"), 0.0);
}

}  // namespace
}  // namespace m3r::memgov

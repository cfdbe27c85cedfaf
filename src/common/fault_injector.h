#ifndef M3R_COMMON_FAULT_INJECTOR_H_
#define M3R_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace m3r {

/// Every instrumented injection site: transient errors, a place crash and
/// byte corruption. m3r.fault.<site>.* keys and chaos schedules use these.
inline constexpr const char* kFaultSites[] = {
    "dfs.read",        "dfs.write",       "m3r.map",
    "m3r.reduce",      "hadoop.map",      "hadoop.reduce",
    "channel.send",    "channel.decode",  "m3r.place",
    "corrupt.dfs.block", "corrupt.cache.block", "corrupt.channel.frame",
    "corrupt.spill",
};

/// Seeded, deterministic fault injection.
///
/// The code base is threaded with named *injection sites* — e.g.
/// "dfs.read", "channel.decode", "hadoop.map", "m3r.place" — each of which
/// asks the injector whether it should fail this particular operation,
/// identified by a caller-chosen *key* (a path, a "task/attempt" pair, a
/// place id). Decisions are pure functions of (seed, site, key) in
/// probability mode, so a multi-threaded run injects exactly the same
/// faults regardless of interleaving; `nth` mode counts evaluations of a
/// site and fires on the nth one, which is deterministic wherever a site is
/// evaluated in a fixed order (e.g. per-place checks).
///
/// Configuration comes from JobConf keys (rows of the knob table,
/// api/knobs.h, read with knobs::Uint64 and knobs::FaultSites):
///   m3r.fault.seed           uint64 seed (default 1)
///   m3r.fault.<site>.prob    per-evaluation failure probability in [0,1]
///   m3r.fault.<site>.nth     1-based: the nth evaluation fails (once)
///   m3r.fault.<site>.limit   cap on injected failures at the site
///                            (default unlimited; lets retries succeed)
///
/// An injected fault surfaces as Status::Unavailable — retriable, exactly
/// like the real-world failures it stands in for.
class FaultInjector {
 public:
  struct SiteConfig {
    double probability = 0;
    int64_t nth = 0;       // 0 = disabled
    int64_t limit = -1;    // -1 = unlimited
  };

  FaultInjector() = default;
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  void Configure(const std::string& site, SiteConfig config);
  bool Armed() const;

  /// Deterministically decides whether the fault at `site` fires for this
  /// evaluation. Thread-safe.
  bool ShouldFail(const std::string& site, const std::string& key);

  /// Status-flavored ShouldFail: Unavailable("injected fault ...") when the
  /// fault fires, OK otherwise.
  Status Check(const std::string& site, const std::string& key);

  /// Corruption-flavored injection for the `corrupt.*` sites
  /// ("corrupt.dfs.block", "corrupt.channel.frame", "corrupt.cache.block",
  /// "corrupt.spill"): instead of returning an error, flips one bit of the
  /// payload. Which bit is a pure function of (seed, site, key) — drawn
  /// from a stream independent of the fire/no-fire coin — so a corrupted
  /// run is byte-reproducible. Fires under the same
  /// prob/nth/limit semantics as ShouldFail. Returns false (and leaves
  /// `*data` untouched) when the site does not fire or the payload is
  /// empty.
  bool MaybeCorrupt(const std::string& site, const std::string& key,
                    std::string* data);

  /// Copy-on-corrupt variant: when the site fires, `*out = in` with the
  /// seeded bit flipped and true is returned; otherwise `*out` is left
  /// alone and no copy is made (keeps the common path zero-copy).
  bool MaybeCorruptCopy(const std::string& site, const std::string& key,
                        std::string_view in, std::string* out);

  /// True when `site` has any configuration, letting hot paths skip
  /// corruption bookkeeping entirely for unarmed sites.
  bool SiteArmed(const std::string& site) const;

  uint64_t seed() const { return seed_; }

  /// Total injected failures, overall or per site.
  int64_t InjectedCount() const;
  int64_t InjectedCount(const std::string& site) const;

  /// Builds an injector over `sites` (api::knobs::FaultSites of a job's
  /// conf). Returns null when no site is configured, so the common case
  /// stays free.
  static std::shared_ptr<FaultInjector> FromSites(
      uint64_t seed, const std::map<std::string, SiteConfig>& sites);

 private:
  struct SiteState {
    SiteConfig config;
    int64_t evaluations = 0;
    int64_t injected = 0;
  };

  uint64_t seed_ = 1;
  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
};

}  // namespace m3r

#endif  // M3R_COMMON_FAULT_INJECTOR_H_

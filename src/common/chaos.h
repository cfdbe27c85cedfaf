#ifndef M3R_COMMON_CHAOS_H_
#define M3R_COMMON_CHAOS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace m3r::chaos {

/// Parameters of a chaos schedule (DESIGN.md §13.5).
struct ChaosOptions {
  /// Master seed; every per-job decision is a pure function of it. 0 = the
  /// schedule is disabled and JobOverrides returns nothing.
  uint64_t seed = 0;
  /// In [0,1]: scales how many fault sites each job arms and how often the
  /// memory budget is squeezed.
  double intensity = 0.5;
  /// Fault-site vocabulary to draw from; empty = every site in
  /// kFaultSites (dfs/channel/task/place/corruption).
  std::vector<std::string> sites;
};

/// A seeded, reproducible multi-fault scenario generator: composes the
/// existing FaultInjector sites, watermark eviction pressure, priority
/// preemption, place crashes, and cancellation into per-job configuration
/// overrides. One ChaosSchedule describes one scenario; the i-th job of
/// the scenario always gets the same overrides for the same seed, so a
/// failing soak run is replayed exactly with nothing but its seed.
///
/// The schedule deliberately emits *conf key/value pairs* rather than
/// touching a JobConf: common/ sits below api/, and a raw pair list keeps
/// the layering clean while letting callers apply the overrides to
/// whatever conf type they drive jobs with.
class ChaosSchedule {
 public:
  explicit ChaosSchedule(ChaosOptions options);

  bool enabled() const { return options_.seed != 0; }
  const ChaosOptions& options() const { return options_; }

  /// Deterministic conf overrides for the `job_index`-th job of the
  /// scenario: a fault-injector seed, one to three armed fault sites
  /// (nth-mode with a small injection limit, so bounded retries always
  /// have a clean attempt left), repair-mode integrity whenever a
  /// corruption site is armed, a job retry budget, and — intensity
  /// permitting — a small memory budget with aggressive watermarks and a
  /// rotating eviction policy to keep admissions evicting.
  std::vector<std::pair<std::string, std::string>> JobOverrides(
      int job_index) const;

  /// Scenario-level actions the driving harness performs itself (the
  /// schedule cannot express them as conf keys): submit a higher-priority
  /// rival mid-run / cancel a sacrificial duplicate job mid-run.
  bool PreemptionArmed() const;
  bool CancellationArmed() const;

  /// Human-readable description of job `job_index`'s overrides, for
  /// failure messages ("seed=7 job=2: sites=[m3r.map,corrupt.spill] ...").
  std::string Describe(int job_index) const;

 private:
  uint64_t Mix(uint64_t stream, uint64_t counter) const;

  ChaosOptions options_;
};

}  // namespace m3r::chaos

#endif  // M3R_COMMON_CHAOS_H_

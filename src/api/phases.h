#ifndef M3R_API_PHASES_H_
#define M3R_API_PHASES_H_

#include <array>
#include <span>

#include "api/engine.h"

namespace m3r::api {

/// Every simulated-time phase either engine charges, by its catalogue row.
/// Names live only in the table (phases.cc).
namespace phase {
enum Id : int {
  kSubmit, kJobOverhead, kCheckpointRestore, kMapPhase, kMapPhasePartial,
  kRecovery, kShuffle, kReducePhase, kExitBarrier, kSort, kIntegrity, kCommit,
  kNumIds
};
}  // namespace phase

/// The one declared catalogue of simulated-time phases (DESIGN.md §19) and
/// the job clock that charges them. A job's `sim_seconds` is the clock's
/// reading and its `time_breakdown` the per-phase sums of the same charges,
/// so the breakdown sums to `sim_seconds` by construction.
namespace phases {

enum class Engines { kM3R, kHadoop, kBoth };

struct Phase {
  phase::Id id;
  const char* name;
  Engines engines;  ///< which engines charge it
};

/// Every row, in phase::Id order.
std::span<const Phase> Table();

/// One job's simulated clock. Charges advance it; Publish reports it.
class Clock {
 public:
  /// Charges `seconds` to `id` and advances the clock by as much.
  void Charge(phase::Id id, double seconds);
  /// Charges `id` the time up to the absolute instant `t` (a SlotTimeline
  /// makespan), which is not before now().
  void AdvanceTo(phase::Id id, double t);
  /// The simulated instant the next phase starts at.
  double now() const { return now_; }
  /// Writes `sim_seconds = now()` and, for each phase charged at least
  /// once (even with 0), its summed charges into `time_breakdown`.
  void Publish(JobResult* result) const;

 private:
  double now_ = 0;
  std::array<double, phase::kNumIds> spent_{};
  std::array<bool, phase::kNumIds> charged_{};
};

}  // namespace phases
}  // namespace m3r::api

#endif  // M3R_API_PHASES_H_

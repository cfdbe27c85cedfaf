#include "api/phases.h"

#include "common/logging.h"

namespace m3r::api::phases {
namespace {

using enum Engines;

/// Each name is written here and nowhere else. The README table
/// "Simulated-time phases" says what each row charges.
constexpr Phase kTable[] = {
    {phase::kSubmit, "submit", kHadoop},
    {phase::kJobOverhead, "job_overhead", kM3R},
    {phase::kCheckpointRestore, "checkpoint_restore", kM3R},
    {phase::kMapPhase, "map_phase", kBoth},
    {phase::kMapPhasePartial, "map_phase_partial", kM3R},
    {phase::kRecovery, "recovery", kM3R},
    {phase::kShuffle, "shuffle", kM3R},
    {phase::kReducePhase, "reduce_phase", kBoth},
    {phase::kExitBarrier, "exit_barrier", kM3R},
    {phase::kSort, "sort", kBoth},
    {phase::kIntegrity, "integrity", kBoth},
    {phase::kCommit, "commit", kHadoop},
};

constexpr bool RowsInIdOrder() {
  if (std::size(kTable) != phase::kNumIds) return false;
  for (size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].id != static_cast<int>(i)) return false;
  }
  return true;
}
static_assert(RowsInIdOrder(), "one row per phase::Id, in Id order");

}  // namespace

std::span<const Phase> Table() { return kTable; }

void Clock::Charge(phase::Id id, double seconds) {
  spent_[id] += seconds;
  charged_[id] = true;
  now_ += seconds;
}

void Clock::AdvanceTo(phase::Id id, double t) {
  M3R_CHECK(t >= now_) << kTable[id].name << " ends at " << t
                       << ", before the clock's " << now_;
  spent_[id] += t - now_;
  charged_[id] = true;
  now_ = t;
}

void Clock::Publish(JobResult* result) const {
  result->sim_seconds = now_;
  result->time_breakdown = {};
  for (const Phase& row : kTable) {
    if (charged_[row.id]) {
      result->time_breakdown.emplace(row.name, spent_[row.id]);
    }
  }
}

}  // namespace m3r::api::phases

#include "common/chaos.h"

#include <algorithm>

#include "common/fault_injector.h"

namespace m3r::chaos {
namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ChaosSchedule::ChaosSchedule(ChaosOptions options)
    : options_(std::move(options)) {
  options_.intensity = std::clamp(options_.intensity, 0.0, 1.0);
  if (options_.sites.empty()) {
    for (const char* site : kFaultSites) options_.sites.push_back(site);
  }
}

uint64_t ChaosSchedule::Mix(uint64_t stream, uint64_t counter) const {
  return SplitMix(options_.seed * 0x9e3779b97f4a7c15ull + stream * 31 +
                  counter);
}

std::vector<std::pair<std::string, std::string>> ChaosSchedule::JobOverrides(
    int job_index) const {
  std::vector<std::pair<std::string, std::string>> out;
  if (!enabled()) return out;
  const uint64_t job = static_cast<uint64_t>(job_index) + 1;

  // Every job shares the scenario's injector seed stream but arms its own
  // sites, so two jobs of one scenario fail differently yet reproducibly.
  out.emplace_back("m3r.fault.seed", std::to_string(Mix(job, 0) | 1));

  int max_sites =
      1 + static_cast<int>(options_.intensity * 2.0 + 0.5);  // 1..3
  int n_sites = 1 + static_cast<int>(Mix(job, 1) %
                                     static_cast<uint64_t>(max_sites));
  bool corruption_armed = false;
  for (int s = 0; s < n_sites; ++s) {
    const std::string& site =
        options_.sites[Mix(job, 10 + static_cast<uint64_t>(s)) %
                       options_.sites.size()];
    if (site.rfind("corrupt.", 0) == 0) corruption_armed = true;
    // nth-mode with a small limit: the fault fires deterministically a
    // bounded number of times within one run, so task-level retries (and
    // work past the nth call) see clean behavior again. Across job-level
    // resubmissions each run re-derives the same decisions, so a harness
    // that wants a different fault mix per attempt asks for a different
    // job_index stream (see tests/chaos_soak_test.cc).
    out.emplace_back(
        "m3r.fault." + site + ".nth",
        std::to_string(2 + Mix(job, 20 + static_cast<uint64_t>(s)) % 6));
    out.emplace_back(
        "m3r.fault." + site + ".limit",
        std::to_string(1 + Mix(job, 30 + static_cast<uint64_t>(s)) % 2));
  }
  // Corruption needs the integrity layer watching the boundary it hits;
  // repair mode keeps single-copy corruptions (cache blocks) survivable.
  out.emplace_back("m3r.integrity.mode",
                   corruption_armed ? "repair" : "detect");

  // A scenario that can crash places can destroy cache-only data any job
  // produced, so every job of the scenario checkpoints its temporary
  // output — that is the documented recovery path (a resubmission heals
  // from the checkpoint; without one, the consumer's manifest check turns
  // the loss into a permanent DataLoss instead of a silent divergence).
  bool crash_possible = false;
  for (const std::string& site : options_.sites) {
    if (site == "m3r.place") crash_possible = true;
  }
  if (crash_possible) {
    out.emplace_back("m3r.cache.checkpoint", "tempout");
    // Mid-phase crash timing: the "m3r.place" site only fires at phase
    // start, so some jobs also get a scripted crash ("P:N" = place P dies
    // before starting its (N+1)-th map task). That exercises the quiesce /
    // re-home / bounded-replay machinery (DESIGN.md §14) at arbitrary
    // points inside the map phase, and occasionally a second crash or a
    // pinned-off recovery so the whole-job fallback path soaks too.
    if (Mix(job, 5) % 2 == 0) {
      const int first = static_cast<int>(Mix(job, 6) % 4);
      std::string script = std::to_string(first) + ":" +
                           std::to_string(1 + Mix(job, 7) % 3);
      if (Mix(job, 8) % 3 == 0) {
        const int second =
            (first + 1 + static_cast<int>(Mix(job, 8) % 3)) % 4;
        script += "," + std::to_string(second) + ":" +
                  std::to_string(1 + Mix(job, 8) % 2);
      }
      out.emplace_back("m3r.place.crash.at", script);
      const uint64_t mode = Mix(job, 9) % 6;
      if (mode == 0) {
        out.emplace_back("m3r.place.recovery.max.crashes", "0");
      } else if (mode == 1) {
        out.emplace_back("m3r.place.recovery.max.crashes", "1");
      }
    }
  }

  // Shuffle knobs (DESIGN.md §15): most jobs stream with a flush threshold
  // small enough that runs actually ship mid-map (so crashes and channel
  // faults land between flushes), some pin the barrier exchange (threshold
  // 0) so both shapes keep soaking, and an occasional one-MB partition
  // budget drives whole runs through the overflow spill path under chaos.
  if (Mix(job, 40) % 4 == 0) {
    out.emplace_back("m3r.shuffle.flush.bytes", "0");
  } else {
    static const char* const kFlushBytes[] = {"1024", "8192", "65536"};
    out.emplace_back("m3r.shuffle.flush.bytes", kFlushBytes[Mix(job, 41) % 3]);
    if (Mix(job, 42) % 3 == 0) {
      out.emplace_back("m3r.shuffle.partition.budget.mb", "1");
    }
  }

  // Injected faults surface as retriable statuses; one resubmission
  // exercises the client backoff path (more would replay the identical
  // deterministic faults, see above).
  out.emplace_back("m3r.job.max.attempts", "2");
  out.emplace_back("m3r.job.retry.backoff.ms", "1");

  // Memory pressure: a small budget with twitchy watermarks keeps
  // admissions on concurrent places evicting while others fill and read —
  // the regime the lease/epoch protocol exists for. Policy rotates so all
  // three score functions soak.
  if (static_cast<double>(Mix(job, 2) % 1000) / 1000.0 <
      0.35 + 0.6 * options_.intensity) {
    static const char* const kBudgetsMb[] = {"1", "2", "4"};
    static const char* const kPolicies[] = {"lru", "lfu", "cost"};
    out.emplace_back("m3r.memory.budget.mb",
                     kBudgetsMb[Mix(job, 3) % 3]);
    out.emplace_back("m3r.memory.high.watermark", "0.85");
    out.emplace_back("m3r.memory.low.watermark", "0.60");
    out.emplace_back("m3r.cache.policy", kPolicies[Mix(job, 4) % 3]);
    out.emplace_back("m3r.cache.checkpoint", "tempout");
  }
  return out;
}

bool ChaosSchedule::PreemptionArmed() const {
  return enabled() && Mix(1000, 0) % 3 == 0;
}

bool ChaosSchedule::CancellationArmed() const {
  return enabled() && Mix(2000, 0) % 3 == 0;
}

std::string ChaosSchedule::Describe(int job_index) const {
  std::string s = "chaos{seed=" + std::to_string(options_.seed) +
                  " job=" + std::to_string(job_index);
  for (const auto& [key, value] : JobOverrides(job_index)) {
    s += " " + key + "=" + value;
  }
  if (PreemptionArmed()) s += " +preempt";
  if (CancellationArmed()) s += " +cancel";
  return s + "}";
}

}  // namespace m3r::chaos

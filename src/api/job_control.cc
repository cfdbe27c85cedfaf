#include "api/job_control.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "api/knobs.h"
#include "common/logging.h"

namespace m3r::api {

// The deprecated constructor's own definition triggers the attribute.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
JobControl::JobControl(Engine* engine)
    : submitter_(nullptr),
      owned_submitter_(std::make_unique<EngineSubmitter>(engine)) {
  submitter_ = owned_submitter_.get();
}
#pragma GCC diagnostic pop

int JobControl::AddJob(JobConf conf, std::vector<int> depends_on) {
  return AddJob(Submission::FromConf(std::move(conf)), std::move(depends_on));
}

int JobControl::AddJob(Submission submission, std::vector<int> depends_on) {
  for (int d : depends_on) {
    M3R_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()))
        << "dependency on unknown job " << d;
  }
  nodes_.push_back({std::move(submission), std::move(depends_on)});
  return static_cast<int>(nodes_.size()) - 1;
}

JobControl::RunSummary JobControl::Run() {
  RunSummary summary;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    summary.states[static_cast<int>(i)] = State::kWaiting;
  }

  std::map<int, JobTicket> inflight;
  // Dispatches per node, counting watchdog-killed attempts: a
  // DeadlineExceeded result re-enters the submit loop like backpressure,
  // bounded so a deterministically hung job cannot spin the DAG forever.
  std::map<int, int> attempts;
  size_t settled = 0;
  while (settled < nodes_.size()) {
    // Submit every node whose dependencies have all succeeded. Independent
    // branches end up in flight together; the submitter decides how much
    // actually runs concurrently.
    bool progressed = false;
    bool backpressured = false;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      int id = static_cast<int>(i);
      if (summary.states[id] != State::kWaiting) continue;
      if (inflight.count(id) != 0) continue;
      bool ready = true;
      bool dep_failed = false;
      for (int d : nodes_[i].deps) {
        State ds = summary.states[d];
        if (ds != State::kSucceeded) ready = false;
        if (ds == State::kFailed || ds == State::kSkipped) dep_failed = true;
      }
      if (dep_failed) {
        summary.states[id] = State::kSkipped;
        ++settled;
        progressed = true;
        continue;
      }
      if (!ready) continue;
      Result<JobTicket> ticket = submitter_->Submit(nodes_[i].submission);
      if (ticket.ok()) {
        inflight.emplace(id, *ticket);
        attempts[id] += 1;
        progressed = true;
      } else if (ticket.status().IsOverloaded()) {
        // Server backpressure: the queue will drain as in-flight jobs
        // (ours or other tenants') finish — retry, don't fail the branch.
        backpressured = true;
      } else {
        JobResult failed;
        failed.status = ticket.status();
        summary.states[id] = State::kFailed;
        summary.results.emplace(id, std::move(failed));
        ++settled;
        progressed = true;
      }
    }

    if (inflight.empty()) {
      if (backpressured) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      M3R_CHECK(progressed) << "JobControl: dependency cycle";
      continue;
    }

    // Reap at least one finished ticket before looking for new work.
    for (bool reaped = false; !reaped;) {
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (!it->second.WaitFor(/*seconds=*/0.002)) {
          ++it;
          continue;
        }
        int id = it->first;
        JobResult result = it->second.Wait();
        it = inflight.erase(it);
        summary.total_sim_seconds += result.sim_seconds;
        if (!result.ok() && result.status.IsDeadlineExceeded()) {
          // Watchdog kill: like Overloaded backpressure, the condition is
          // transient (pressure, a mid-heal place crash), so leave the node
          // kWaiting and let the submit loop redispatch it — bounded by the
          // job's own retry budget.
          int allowed = std::max<int64_t>(
              2, knobs::Int(nodes_[id].submission.conf, conf::kJobMaxAttempts));
          if (attempts[id] < allowed) {
            reaped = true;
            continue;
          }
        }
        summary.states[id] =
            result.ok() ? State::kSucceeded : State::kFailed;
        summary.results.emplace(id, std::move(result));
        ++settled;
        reaped = true;
      }
    }
  }

  summary.all_succeeded = true;
  for (const auto& [id, state] : summary.states) {
    if (state != State::kSucceeded) summary.all_succeeded = false;
  }
  return summary;
}

}  // namespace m3r::api

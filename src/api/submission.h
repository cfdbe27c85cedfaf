#ifndef M3R_API_SUBMISSION_H_
#define M3R_API_SUBMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/status.h"

namespace m3r::api {

/// A typed job submission: the first-class scheduling fields a serving
/// front end needs — who (tenant), where (queue), how urgently (priority,
/// deadline hint) — carried alongside the JobConf instead of being smuggled
/// through loose configuration strings. Validated before admission; an
/// invalid submission is rejected with InvalidArgument before it ever
/// reaches a queue.
struct Submission {
  /// Accounting identity: maps onto a memory-governor tenant quota while
  /// this tenant has jobs in the system.
  std::string tenant = "default";
  /// Named scheduler queue; fair-share weight comes from the server's
  /// JobServer::Options::queue_weights (default 1.0).
  std::string queue = "default";
  /// Higher runs first; with preemption enabled, a strictly higher
  /// priority may cancel-and-requeue a running lower-priority job.
  /// Fair-share applies among equal priorities.
  int priority = 0;
  /// Advisory completion target in seconds (0 = none). Recorded and
  /// surfaced through Poll(); not a hard guarantee.
  double deadline_hint = 0;
  JobConf conf;

  /// Non-empty identifier sanity (tenant/queue: [A-Za-z0-9._-]), priority
  /// within [-1000, 1000], non-negative deadline.
  Status Validate() const;

  /// Builds a Submission from a bare JobConf, reading the scheduling
  /// fields from their conf-key fallbacks (mapred.job.queue.name,
  /// m3r.server.tenant, m3r.server.priority) — the compatibility path
  /// port-based clients use.
  static Submission FromConf(JobConf conf);
};

/// Ticket lifecycle. kPreempted is a transient queued-again state: the job
/// was cancelled mid-run to make room for a higher priority and sits in
/// its queue awaiting re-dispatch — it is not terminal and not lost.
enum class TicketPhase {
  kQueued,
  kRunning,
  kPreempted,
  kSucceeded,
  kFailed,
  kCancelled,
};

const char* TicketPhaseName(TicketPhase phase);

inline bool IsTerminal(TicketPhase phase) {
  return phase == TicketPhase::kSucceeded || phase == TicketPhase::kFailed ||
         phase == TicketPhase::kCancelled;
}

/// Point-in-time snapshot of a ticket, returned by JobTicket::Poll().
struct TicketInfo {
  int64_t id = 0;
  std::string tenant;
  std::string queue;
  std::string job_name;
  int priority = 0;
  TicketPhase phase = TicketPhase::kQueued;
  double progress = 0;
  /// Dispatches so far (1 on the first run; +1 per preemption re-run).
  int attempts = 0;
  int preemptions = 0;
  /// Admission -> (latest) dispatch; still growing while queued.
  double wait_seconds = 0;
  /// Latest dispatch -> terminal; still growing while running.
  double run_seconds = 0;
};

/// Handle to a submitted job: one job-control vocabulary (wait / poll /
/// cancel / live counters) whether the job went through the fair-share
/// JobServer or straight to an Engine. Copyable — all copies observe the
/// same underlying job, shared-future style; the submitting side keeps the
/// job alive independently of outstanding tickets.
class JobTicket {
 public:
  struct State;

  JobTicket() = default;
  explicit JobTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  bool Valid() const { return state_ != nullptr; }
  int64_t id() const;
  const std::string& tenant() const;
  const std::string& queue() const;
  const std::string& job_name() const;

  /// Blocks until the job is terminal; returns its result (valid as long
  /// as any ticket copy lives).
  const JobResult& Wait();
  /// Waits up to `seconds`; true once terminal.
  bool WaitFor(double seconds);
  bool Done() const;

  TicketInfo Poll() const;

  /// Requests cancellation: a queued job is failed with Cancelled without
  /// running; a running job is cancelled through its JobHandle at the next
  /// task boundary. Idempotent; terminal jobs are unaffected.
  void Cancel();

  /// Live counter snapshot — the underlying JobHandle's counters while
  /// running, plus the scheduler's Scheduler-group gauges when the job
  /// went through a JobServer.
  Counters LiveCounters() const;

  /// Owner-side access (scheduler / submitter internals).
  const std::shared_ptr<State>& state() const { return state_; }

 private:
  std::shared_ptr<State> state_;
};

/// Shared between the ticket copies and the owner (JobServer dispatcher or
/// EngineSubmitter monitor) driving the job. Owners mutate through the
/// transition helpers, which notify waiters.
struct JobTicket::State {
  // Immutable after construction.
  int64_t id = 0;
  std::string tenant;
  std::string queue;
  std::string job_name;
  int priority = 0;
  double deadline_hint = 0;

  mutable std::mutex mu;
  std::condition_variable cv;
  TicketPhase phase = TicketPhase::kQueued;
  double progress = 0;
  Counters live;
  JobResult result;
  int attempts = 0;
  int preemptions = 0;
  bool cancel_requested = false;
  /// Installed by the owner at admission; invoked by Cancel() with `mu`
  /// released. Owners that can outlive their tickets route this through a
  /// weak reference (see JobServer).
  std::function<void()> on_cancel;

  std::chrono::steady_clock::time_point admitted_at{};
  std::chrono::steady_clock::time_point dispatched_at{};
  std::chrono::steady_clock::time_point finished_at{};

  void MarkAdmitted();
  void MarkRunning();
  /// Cancelled mid-run to make room: back to the queued state, counted.
  void MarkPreempted();
  void Complete(JobResult job_result, TicketPhase terminal);
  TicketInfo Info() const;
};

/// Where typed submissions go. Implemented by the fair-share JobServer
/// (queues, admission control, preemption) and by EngineSubmitter (direct
/// dispatch); drivers like JobControl program against this interface so
/// the same DAG runs standalone or through a multi-tenant server.
class JobSubmitter {
 public:
  virtual ~JobSubmitter() = default;

  /// Validates and admits the submission. Typed failures: InvalidArgument
  /// (malformed submission), Overloaded (queue at depth — backpressure,
  /// retriable), FailedPrecondition (submitter shut down).
  virtual Result<JobTicket> Submit(Submission submission) = 0;
};

/// JobSubmitter over a bare Engine: every admitted submission is
/// dispatched immediately via SubmitAsync (the engine serializes actual
/// execution). No queues, no quotas — the adapter drivers use when no
/// JobServer is deployed.
class EngineSubmitter : public JobSubmitter {
 public:
  explicit EngineSubmitter(Engine* engine) : engine_(engine) {}
  ~EngineSubmitter() override;

  Result<JobTicket> Submit(Submission submission) override;

 private:
  Engine* engine_;
  std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<std::thread> monitors_;
};

}  // namespace m3r::api

#endif  // M3R_API_SUBMISSION_H_

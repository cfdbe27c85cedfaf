#ifndef M3R_M3R_SERVER_H_
#define M3R_M3R_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/submission.h"

namespace m3r::engine {

/// Server mode (paper §5.3) grown into a multi-tenant serving front end:
/// a long-running endpoint backed by any Engine, scheduling thousands of
/// queued jobs from many tenants so that none starves the rest.
///
///  - Named queues with weighted fair-share: service (completed simulated
///    seconds) is divided among backlogged queues in proportion to
///    Options::queue_weights, via start-time-fair virtual time
///    (common/fairshare.h). Priorities are strict bands above the
///    fair-share order.
///  - K in-flight jobs (Options::max_inflight) dispatched through
///    Engine::SubmitAsync. The engine still serializes execution
///    internally; extra slots pipeline dispatch so the engine never idles
///    between jobs.
///  - Bounded admission (Options::queue_depth) with typed backpressure:
///    a full queue rejects with Status::Overloaded or blocks the
///    submitter, per Options::admission.
///  - Priority preemption (Options::preemption): a strictly higher
///    priority submission cancels the lowest-priority running job through
///    its JobHandle; the preempted job is re-queued, not lost, and runs
///    again from scratch (engines abort cancelled jobs cleanly, removing
///    partial output).
///  - Per-tenant memory quotas: while a tenant has jobs in the system it
///    is registered with the M3R engine's MemoryGovernor
///    (Options::tenant_quotas); the cache share of each dispatched job
///    is clamped to its tenant's quota. Quotas rebalance on tenant
///    join/leave.
///  - Live metrics: per-queue gauges in every running ticket's
///    LiveCounters (Scheduler group), scheduler fields in job-end
///    metrics (sched_wait_ms, sched_attempts, sched_preemptions), and the
///    Stats() snapshot (queued/running/completed, wait time, share of
///    completed service).
///
/// "It is possible to simply replace the Hadoop server daemon with the
/// M3R one": bind an M3R-backed JobServer where a Hadoop-backed one used
/// to be (ServerRegistry) and clients keep working.
class JobServer : public api::JobSubmitter {
 public:
  enum class AdmissionMode { kReject, kBlock };
  enum class DrainMode {
    kDrain,  ///< run every queued job to completion, then stop
    kAbort,  ///< cancel running jobs, fail queued jobs with Cancelled
  };

  struct Options {
    /// Jobs concurrently dispatched into the engine (>= 1).
    int max_inflight = 1;
    /// Per-queue cap on jobs awaiting dispatch (>= 1).
    int queue_depth = 64;
    /// Allow higher-priority submissions to preempt running jobs.
    bool preemption = true;
    AdmissionMode admission = AdmissionMode::kReject;
    /// Fair-share weight for queues not named in `queue_weights`.
    double default_queue_weight = 1.0;
    std::map<std::string, double> queue_weights;
    /// Explicit tenant quota fractions; absent tenants split the
    /// unreserved remainder evenly (memgov::MemoryGovernor::TenantJoin).
    std::map<std::string, double> tenant_quotas;
  };

  explicit JobServer(std::shared_ptr<api::Engine> engine);
  JobServer(std::shared_ptr<api::Engine> engine, Options options);
  /// Drains: equivalent to Shutdown(DrainMode::kDrain).
  ~JobServer() override;

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  const std::string& EngineName() const { return engine_name_; }

  /// Typed submission: validates, admits against the queue depth, and
  /// returns a ticket. Typed failures: InvalidArgument (malformed
  /// submission), Overloaded (queue full in reject mode),
  /// FailedPrecondition (server shut down).
  Result<api::JobTicket> Submit(api::Submission submission) override;

  /// Per-queue scheduling statistics snapshot.
  struct QueueStats {
    std::string queue;
    double weight = 1.0;
    int queued = 0;       ///< awaiting dispatch right now
    int running = 0;      ///< dispatched, not yet terminal
    int64_t submitted = 0;
    int64_t completed = 0;  ///< terminal successes
    int64_t failed = 0;     ///< terminal failures (excluding cancels)
    int64_t cancelled = 0;
    int64_t preempted = 0;  ///< preemption re-queues (not terminal)
    int64_t rejected = 0;   ///< admission rejections (Overloaded)
    /// Runs cancelled by the watchdog (timeout or heartbeat stall) and
    /// settled as the typed retriable DeadlineExceeded.
    int64_t watchdog_kills = 0;
    double completed_sim_seconds = 0;  ///< service received (successes)
    double total_wait_seconds = 0;     ///< sum of admission->dispatch waits
    double virtual_time = 0;
    /// completed_sim_seconds / sum over all queues (0 when nothing
    /// completed yet) — the measured fair share.
    double share_of_completed = 0;
  };
  std::vector<QueueStats> Stats() const;

  /// Ids of non-terminal tickets in `queue` ("" = all queues).
  std::vector<int64_t> ActiveTickets(const std::string& queue = "") const;

  /// Stops accepting jobs and shuts the scheduler down. kDrain awaits
  /// every queued and running job; kAbort cancels running jobs at their
  /// next task boundary and fails queued jobs with Cancelled. Either way
  /// all worker threads are joined — in-flight jobs are never leaked.
  /// Idempotent; concurrent callers block until shutdown completes.
  void Shutdown(DrainMode mode = DrainMode::kDrain);

 private:
  struct Core;

  Result<api::JobTicket> SubmitInternal(api::Submission submission,
                                        bool block_when_full);

  std::shared_ptr<Core> core_;
  std::string engine_name_;
};

/// The "different ports" device of §5.3: servers bind to integer ports;
/// clients pick a server by changing one number in their configuration.
/// Swapping the server behind a port is invisible to clients.
class ServerRegistry {
 public:
  static ServerRegistry& Instance();

  void Bind(int port, std::shared_ptr<JobServer> server);
  std::shared_ptr<JobServer> Lookup(int port) const;
  void Unbind(int port);

 private:
  ServerRegistry() = default;
  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<JobServer>> servers_;
};

/// Configuration key naming the server port a client submits to.
inline constexpr char kJobTrackerPortKey[] = "mapred.job.tracker.port";

/// Client-side submit: looks up the server bound to the port in the
/// submission's conf (default 9001) and submits there — the paper's "a
/// client can dynamically choose which server to submit a job to by
/// altering the appropriate port setting in their job configuration".
Result<api::JobTicket> SubmitViaPort(api::Submission submission);

/// Bare-conf convenience: scheduling fields are read from their conf-key
/// fallbacks (Submission::FromConf).
Result<api::JobTicket> SubmitViaPort(const api::JobConf& conf);

}  // namespace m3r::engine

#endif  // M3R_M3R_SERVER_H_

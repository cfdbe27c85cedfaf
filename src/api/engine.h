#ifndef M3R_API_ENGINE_H_
#define M3R_API_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/counters.h"
#include "api/job_conf.h"
#include "common/status.h"

namespace m3r::api {

/// Outcome of one job: status, counters, and the two time scales — wall
/// seconds (what this host actually spent) and simulated seconds (what the
/// paper's 20-node cluster would have spent, from the sim ledger).
struct JobResult {
  Status status;
  Counters counters;
  double sim_seconds = 0;
  double wall_seconds = 0;
  /// Physical activity counters (bytes shuffled/spilled, cache hits, ...).
  std::map<std::string, int64_t> metrics;
  /// Simulated-seconds attribution per phase/overhead.
  std::map<std::string, double> time_breakdown;

  bool ok() const { return status.ok(); }
};

/// Handle to a job submitted with Engine::SubmitAsync. Observes the job
/// while it runs (Progress, LiveCounters) and joins it on Wait. Move-only;
/// the destructor blocks until the job finishes, std::async-style, so a
/// handle can never outlive a running job silently.
class JobHandle {
 public:
  struct State;

  JobHandle() = default;
  JobHandle(JobHandle&& other) noexcept;
  JobHandle& operator=(JobHandle&& other) noexcept;
  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;
  ~JobHandle();

  bool Valid() const { return state_ != nullptr; }
  const std::string& JobName() const;

  /// Blocks until the job finishes; returns its result (valid as long as
  /// the handle lives).
  const JobResult& Wait();

  /// Waits up to `seconds`; returns true once the job is terminal.
  bool WaitFor(double seconds);

  bool Done() const;

  /// Requests cancellation. The engine observes the request at its next
  /// task boundary, stops scheduling new tasks, and finishes the job with
  /// Status::Cancelled — no _SUCCESS marker is committed. Idempotent; a
  /// job that already completed is unaffected.
  void Cancel();

  /// Highest progress fraction reported so far, in [0, 1]; never
  /// decreases.
  double Progress() const;

  /// Snapshot of the job's counters as of the last progress report (the
  /// full counters once the job is done).
  Counters LiveCounters() const;

  /// Monotonic heartbeat: bumped on every progress report the engine makes
  /// (task completions, phase milestones). A watchdog that sees the epoch
  /// stand still across its stall budget knows the job is hung, not merely
  /// slow — progress fraction alone can plateau legitimately (e.g. a long
  /// reduce tail), the epoch cannot.
  uint64_t HeartbeatEpoch() const;

 private:
  friend class Engine;
  JobHandle(std::shared_ptr<State> state, std::thread worker);

  std::shared_ptr<State> state_;
  std::thread worker_;
};

/// A MapReduce execution engine. Both the baseline Hadoop engine and M3R
/// implement this; jobs (JobConf + registered user classes) are engine
/// agnostic — the paper's headline property.
///
/// Engines are stateful across Submit calls: M3R keeps its places and cache
/// alive for the whole job sequence; the Hadoop engine keeps only the
/// simulated-cluster clock.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string Name() const = 0;

  /// Runs the job to completion on the calling thread. The synchronous
  /// primitive that SubmitAsync wraps.
  virtual JobResult Submit(const JobConf& conf) = 0;

  /// Submits the job on a background thread and returns a handle for
  /// polling progress/counters and joining the result (server mode's
  /// asynchronous status surface, paper §5.3). Engines execute one job at
  /// a time: concurrent SubmitAsync calls queue behind each other.
  JobHandle SubmitAsync(const JobConf& conf);

  /// Job-end notification URLs "pinged" (recorded) by this engine, in
  /// submission order — models Hadoop's job.end.notification.url support.
  std::vector<std::string> Notifications() const;

 protected:
  /// Called by implementations at the end of Submit.
  void NotifyJobEnd(const JobConf& conf, const JobResult& result);
  /// Called by implementations at task/phase milestones.
  void ReportProgress(double progress, const Counters* live) const;
  /// True when the running async job's handle requested cancellation.
  /// Engines poll this at task boundaries; synchronous Submit calls (no
  /// handle) always see false.
  bool CancelRequested() const;

 private:
  mutable std::mutex notify_mu_;
  std::vector<std::string> notifications_;
  /// The state of the currently running async job, fed by ReportProgress.
  std::shared_ptr<JobHandle::State> active_async_;
  /// Serializes async submissions: engines are stateful and Submit is not
  /// re-entrant.
  std::mutex submit_mu_;
};

/// Integrated-mode job client (paper §5.3): submits every job to the
/// primary (M3R) engine, unless the job sets m3r.force.hadoop, in which
/// case it is routed to the fallback Hadoop engine "as usual".
class JobClient {
 public:
  JobClient(std::shared_ptr<Engine> primary,
            std::shared_ptr<Engine> hadoop_fallback = nullptr)
      : primary_(std::move(primary)),
        fallback_(std::move(hadoop_fallback)) {}

  /// Blocking submit — SubmitJobAsync + Wait. When the job sets
  /// m3r.job.max.attempts > 1, retriable failures (IOError / Aborted /
  /// Unavailable / DataLoss / DeadlineExceeded — e.g. injected faults, a
  /// place crash, a detected checksum mismatch, or a watchdog kill of a
  /// stalled attempt) are resubmitted with exponential backoff
  /// starting at m3r.job.retry.backoff.ms, decorrelated-jittered with a
  /// deterministic stream seeded from m3r.fault.seed.
  JobResult SubmitJob(const JobConf& conf);

  /// Routes to the engine the conf selects and returns its handle.
  JobHandle SubmitJobAsync(const JobConf& conf);

  /// Runs a sequence of jobs, stopping at the first failure. Returns the
  /// per-job results.
  std::vector<JobResult> RunSequence(const std::vector<JobConf>& jobs);

 private:
  Engine& EngineFor(const JobConf& conf);

  std::shared_ptr<Engine> primary_;
  std::shared_ptr<Engine> fallback_;
};

}  // namespace m3r::api

#endif  // M3R_API_ENGINE_H_

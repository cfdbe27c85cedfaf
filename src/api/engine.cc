#include "api/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>

#include "api/knobs.h"
#include "common/logging.h"
#include "common/retry.h"

namespace m3r::api {

/// Shared between a JobHandle and the engine thread running its job.
struct JobHandle::State {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::string job_name;
  bool done = false;
  double progress = 0;
  Counters live;
  JobResult result;
  /// Set by JobHandle::Cancel, polled by the engine at task boundaries.
  std::atomic<bool> cancel_requested{false};
  /// Bumped on every ReportProgress call — the watchdog's liveness signal.
  std::atomic<uint64_t> heartbeat_epoch{0};
};

JobHandle::JobHandle(std::shared_ptr<State> state, std::thread worker)
    : state_(std::move(state)), worker_(std::move(worker)) {}

JobHandle::JobHandle(JobHandle&& other) noexcept
    : state_(std::move(other.state_)), worker_(std::move(other.worker_)) {}

JobHandle& JobHandle::operator=(JobHandle&& other) noexcept {
  if (this != &other) {
    if (worker_.joinable()) worker_.join();
    state_ = std::move(other.state_);
    worker_ = std::move(other.worker_);
  }
  return *this;
}

JobHandle::~JobHandle() {
  if (worker_.joinable()) worker_.join();
}

const std::string& JobHandle::JobName() const {
  M3R_CHECK(state_ != nullptr);
  return state_->job_name;
}

const JobResult& JobHandle::Wait() {
  M3R_CHECK(state_ != nullptr) << "Wait on an empty JobHandle";
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  if (worker_.joinable()) worker_.join();
  return state_->result;
}

bool JobHandle::WaitFor(double seconds) {
  M3R_CHECK(state_ != nullptr) << "WaitFor on an empty JobHandle";
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock,
                             std::chrono::duration<double>(seconds),
                             [&] { return state_->done; });
}

bool JobHandle::Done() const {
  M3R_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void JobHandle::Cancel() {
  M3R_CHECK(state_ != nullptr) << "Cancel on an empty JobHandle";
  state_->cancel_requested.store(true, std::memory_order_relaxed);
}

double JobHandle::Progress() const {
  M3R_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->progress;
}

Counters JobHandle::LiveCounters() const {
  M3R_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->live;
}

uint64_t JobHandle::HeartbeatEpoch() const {
  M3R_CHECK(state_ != nullptr);
  return state_->heartbeat_epoch.load(std::memory_order_relaxed);
}

JobHandle Engine::SubmitAsync(const JobConf& conf) {
  auto state = std::make_shared<JobHandle::State>();
  state->job_name = conf.JobName();
  std::thread worker([this, conf, state] {
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    {
      std::lock_guard<std::mutex> lock(notify_mu_);
      active_async_ = state;
    }
    JobResult result = Submit(conf);
    {
      std::lock_guard<std::mutex> lock(notify_mu_);
      active_async_.reset();
    }
    std::lock_guard<std::mutex> lock(state->mu);
    state->progress = 1.0;
    state->live = result.counters;
    state->result = std::move(result);
    state->done = true;
    state->cv.notify_all();
  });
  return JobHandle(std::move(state), std::move(worker));
}

std::vector<std::string> Engine::Notifications() const {
  std::lock_guard<std::mutex> lock(notify_mu_);
  return notifications_;
}

void Engine::ReportProgress(double progress, const Counters* live) const {
  std::shared_ptr<JobHandle::State> async;
  {
    std::lock_guard<std::mutex> lock(notify_mu_);
    async = active_async_;
  }
  if (async != nullptr) {
    async->heartbeat_epoch.fetch_add(1, std::memory_order_relaxed);
    // Counters' copy goes through its own lock, so the live snapshot is
    // safe against concurrent task increments.
    std::lock_guard<std::mutex> lock(async->mu);
    // Task strands report concurrently, so a smaller fraction can land
    // after a larger one; the handle only moves forward.
    async->progress = std::max(async->progress, progress);
    if (live != nullptr) async->live = *live;
  }
}

bool Engine::CancelRequested() const {
  std::shared_ptr<JobHandle::State> async;
  {
    std::lock_guard<std::mutex> lock(notify_mu_);
    async = active_async_;
  }
  return async != nullptr &&
         async->cancel_requested.load(std::memory_order_relaxed);
}

void Engine::NotifyJobEnd(const JobConf& conf, const JobResult& result) {
  std::string url = conf.Get(conf::kJobEndNotificationUrl);
  if (url.empty()) return;
  std::string ping = url + "?jobName=" + conf.JobName() + "&status=" +
                     (result.ok() ? "SUCCEEDED" : "FAILED");
  // FAILED pings say why (e.g. reason=DataLoss vs reason=Unavailable), so
  // external workflow managers can apply their own retry classification.
  if (!result.ok()) {
    ping += std::string("&reason=") + StatusCodeName(result.status.code());
  }
  std::lock_guard<std::mutex> lock(notify_mu_);
  notifications_.push_back(ping);
}

Engine& JobClient::EngineFor(const JobConf& conf) {
  if (knobs::Bool(conf, conf::kForceHadoopEngine) && fallback_ != nullptr) {
    return *fallback_;
  }
  return *primary_;
}

JobHandle JobClient::SubmitJobAsync(const JobConf& conf) {
  return EngineFor(conf).SubmitAsync(conf);
}

JobResult JobClient::SubmitJob(const JobConf& conf) {
  BackoffPolicy policy;
  policy.max_attempts =
      static_cast<int>(knobs::Int(conf, conf::kJobMaxAttempts));
  policy.initial_backoff_us =
      static_cast<double>(knobs::Int(conf, conf::kJobRetryBackoffMs)) * 1000;
  policy.max_backoff_us = policy.initial_backoff_us * 64;
  // Decorrelated jitter de-synchronizes the retry storms of concurrent
  // clients; seeding from m3r.fault.seed keeps resilience drills
  // reproducible end to end.
  policy.decorrelated_jitter = true;
  policy.jitter_seed = knobs::Uint64(conf, conf::kFaultSeed);
  Backoff backoff(policy);
  JobResult result;
  while (backoff.Next()) {
    JobHandle handle = SubmitJobAsync(conf);
    result = handle.Wait();
    if (result.ok() || !result.status.IsRetriable()) return result;
    M3R_LOG(Warn) << "job '" << conf.JobName() << "' attempt "
                  << backoff.attempts()
                  << " failed: " << result.status.ToString();
  }
  return result;
}

std::vector<JobResult> JobClient::RunSequence(
    const std::vector<JobConf>& jobs) {
  std::vector<JobResult> results;
  for (const JobConf& job : jobs) {
    results.push_back(SubmitJob(job));
    if (!results.back().ok()) {
      M3R_LOG(Error) << "job '" << job.JobName()
                     << "' failed: " << results.back().status.ToString();
      break;
    }
  }
  return results;
}

}  // namespace m3r::api

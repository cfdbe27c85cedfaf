#include "api/submission.h"

#include <utility>

#include "api/knobs.h"
#include "common/logging.h"

namespace m3r::api {

namespace {

bool ValidIdentifier(const std::string& s) {
  if (s.empty() || s.size() > 128) return false;
  for (char c : s) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

double SecondsSince(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  if (from.time_since_epoch().count() == 0) return 0;
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Status Submission::Validate() const {
  if (!ValidIdentifier(tenant)) {
    return Status::InvalidArgument("bad submission tenant: '" + tenant + "'");
  }
  if (!ValidIdentifier(queue)) {
    return Status::InvalidArgument("bad submission queue: '" + queue + "'");
  }
  if (priority < -1000 || priority > 1000) {
    return Status::InvalidArgument("submission priority out of [-1000,1000]");
  }
  if (deadline_hint < 0) {
    return Status::InvalidArgument("negative submission deadline_hint");
  }
  return Status::OK();
}

Submission Submission::FromConf(JobConf conf) {
  Submission s;
  s.queue = conf.Get(conf::kQueueName, "default");
  s.tenant = knobs::String(conf, conf::kSubmissionTenant);
  s.priority = static_cast<int>(knobs::Int(conf, conf::kSubmissionPriority));
  s.deadline_hint = knobs::Double(conf, conf::kSubmissionDeadlineHint);
  s.conf = std::move(conf);
  return s;
}

const char* TicketPhaseName(TicketPhase phase) {
  switch (phase) {
    case TicketPhase::kQueued: return "QUEUED";
    case TicketPhase::kRunning: return "RUNNING";
    case TicketPhase::kPreempted: return "PREEMPTED";
    case TicketPhase::kSucceeded: return "SUCCEEDED";
    case TicketPhase::kFailed: return "FAILED";
    case TicketPhase::kCancelled: return "CANCELLED";
  }
  return "?";
}

int64_t JobTicket::id() const {
  M3R_CHECK(state_ != nullptr);
  return state_->id;
}

const std::string& JobTicket::tenant() const {
  M3R_CHECK(state_ != nullptr);
  return state_->tenant;
}

const std::string& JobTicket::queue() const {
  M3R_CHECK(state_ != nullptr);
  return state_->queue;
}

const std::string& JobTicket::job_name() const {
  M3R_CHECK(state_ != nullptr);
  return state_->job_name;
}

const JobResult& JobTicket::Wait() {
  M3R_CHECK(state_ != nullptr) << "Wait on an empty JobTicket";
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return IsTerminal(state_->phase); });
  return state_->result;
}

bool JobTicket::WaitFor(double seconds) {
  M3R_CHECK(state_ != nullptr) << "WaitFor on an empty JobTicket";
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [&] { return IsTerminal(state_->phase); });
}

bool JobTicket::Done() const {
  M3R_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return IsTerminal(state_->phase);
}

TicketInfo JobTicket::Poll() const {
  M3R_CHECK(state_ != nullptr) << "Poll on an empty JobTicket";
  return state_->Info();
}

void JobTicket::Cancel() {
  M3R_CHECK(state_ != nullptr) << "Cancel on an empty JobTicket";
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (IsTerminal(state_->phase)) return;
    state_->cancel_requested = true;
    hook = state_->on_cancel;
  }
  // Invoked outside `mu`: the hook takes the owner's lock first (owner
  // lock -> ticket lock is the global order).
  if (hook) hook();
}

Counters JobTicket::LiveCounters() const {
  M3R_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->live;
}

void JobTicket::State::MarkAdmitted() {
  std::lock_guard<std::mutex> lock(mu);
  admitted_at = std::chrono::steady_clock::now();
}

void JobTicket::State::MarkRunning() {
  std::lock_guard<std::mutex> lock(mu);
  phase = TicketPhase::kRunning;
  dispatched_at = std::chrono::steady_clock::now();
  ++attempts;
  cv.notify_all();
}

void JobTicket::State::MarkPreempted() {
  std::lock_guard<std::mutex> lock(mu);
  phase = TicketPhase::kPreempted;
  progress = 0;
  ++preemptions;
  cv.notify_all();
}

void JobTicket::State::Complete(JobResult job_result, TicketPhase terminal) {
  std::lock_guard<std::mutex> lock(mu);
  M3R_CHECK(IsTerminal(terminal));
  if (IsTerminal(phase)) return;  // first terminal transition wins
  phase = terminal;
  progress = terminal == TicketPhase::kSucceeded ? 1.0 : progress;
  live = job_result.counters;
  result = std::move(job_result);
  finished_at = std::chrono::steady_clock::now();
  cv.notify_all();
}

TicketInfo JobTicket::State::Info() const {
  std::lock_guard<std::mutex> lock(mu);
  TicketInfo info;
  info.id = id;
  info.tenant = tenant;
  info.queue = queue;
  info.job_name = job_name;
  info.priority = priority;
  info.phase = phase;
  info.progress = progress;
  info.attempts = attempts;
  info.preemptions = preemptions;
  auto now = std::chrono::steady_clock::now();
  bool queued = phase == TicketPhase::kQueued || phase == TicketPhase::kPreempted;
  info.wait_seconds = queued || attempts == 0
                          ? SecondsSince(admitted_at, now)
                          : SecondsSince(admitted_at, dispatched_at);
  if (attempts > 0) {
    info.run_seconds = IsTerminal(phase)
                           ? SecondsSince(dispatched_at, finished_at)
                           : (queued ? 0 : SecondsSince(dispatched_at, now));
  }
  return info;
}

EngineSubmitter::~EngineSubmitter() {
  std::vector<std::thread> monitors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    monitors.swap(monitors_);
  }
  for (std::thread& t : monitors) {
    if (t.joinable()) t.join();
  }
}

Result<JobTicket> EngineSubmitter::Submit(Submission submission) {
  M3R_RETURN_NOT_OK(submission.Validate());

  auto state = std::make_shared<JobTicket::State>();
  state->tenant = submission.tenant;
  state->queue = submission.queue;
  state->job_name = submission.conf.JobName();
  state->priority = submission.priority;
  state->deadline_hint = submission.deadline_hint;
  state->MarkAdmitted();

  // Dispatch immediately; the handle is shared with the cancel hook so a
  // ticket Cancel() reaches the engine whichever side still holds it.
  auto handle =
      std::make_shared<JobHandle>(engine_->SubmitAsync(submission.conf));
  state->on_cancel = [handle] { handle->Cancel(); };
  state->MarkRunning();

  std::thread monitor([state, handle] {
    while (!handle->WaitFor(/*seconds=*/0.002)) {
      Counters live = handle->LiveCounters();
      double progress = handle->Progress();
      std::lock_guard<std::mutex> lock(state->mu);
      state->progress = progress;
      state->live = std::move(live);
    }
    JobResult result = handle->Wait();
    TicketPhase terminal = result.ok() ? TicketPhase::kSucceeded
                           : result.status.IsCancelled()
                               ? TicketPhase::kCancelled
                               : TicketPhase::kFailed;
    state->Complete(std::move(result), terminal);
  });

  {
    std::lock_guard<std::mutex> lock(mu_);
    state->id = next_id_++;
    monitors_.push_back(std::move(monitor));
  }
  return JobTicket(state);
}

}  // namespace m3r::api

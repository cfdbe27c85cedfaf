#include "m3r/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "api/knobs.h"
#include "api/metrics.h"
#include "common/fairshare.h"
#include "common/logging.h"
#include "m3r/m3r_engine.h"

namespace m3r::engine {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  if (from.time_since_epoch().count() == 0 ||
      to.time_since_epoch().count() == 0 || to < from) {
    return 0;
  }
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Core: all scheduler state, shared (shared_ptr) between the JobServer
// facade, the dispatcher thread, per-job monitor threads, and ticket cancel
// hooks (which hold only a weak_ptr so a ticket outliving the server cannot
// touch freed state). Lock order is always core->mu, then a ticket's mu —
// never the reverse.
// ---------------------------------------------------------------------------

struct JobServer::Core : std::enable_shared_from_this<JobServer::Core> {
  std::shared_ptr<api::Engine> engine;
  Options options;
  /// Non-null when the backing engine is M3R: tenant quotas are registered
  /// with its memory governor.
  M3REngine* m3r = nullptr;

  mutable std::mutex mu;
  std::condition_variable cv;
  /// Serializes Shutdown callers (join is single-threaded).
  std::mutex shutdown_mu;

  bool accepting = true;
  bool abort = false;
  int64_t next_id = 1;
  int64_t next_seq = 1;

  /// One queued job: its ticket state plus the submission to dispatch.
  struct Pending {
    std::shared_ptr<api::JobTicket::State> state;
    api::Submission submission;
    /// Admission order, the fair tie-break within a priority band. A
    /// preempted job keeps its original seq so re-queueing does not send
    /// it to the back of its band.
    int64_t seq = 0;
  };

  struct QueueState {
    double weight = 1.0;
    /// Ordered: priority descending, then seq ascending.
    std::deque<Pending> pending;
    int running = 0;
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    int64_t cancelled = 0;
    int64_t preempted = 0;
    int64_t rejected = 0;
    /// Jobs the watchdog cancelled for exceeding m3r.job.timeout.sec or
    /// stalling past m3r.job.heartbeat.stall.sec.
    int64_t watchdog_kills = 0;
    double completed_sim_seconds = 0;
    double total_wait_seconds = 0;
  };
  std::map<std::string, QueueState> queues;
  FairShareClock clock;
  double total_completed_sim = 0;

  struct Running {
    std::shared_ptr<api::JobTicket::State> state;
    api::Submission submission;
    std::shared_ptr<api::JobHandle> handle;
    int64_t seq = 0;
    bool preempt_requested = false;
    /// The monitor's watchdog cancelled this run; SettleJob rewrites the
    /// engine's Cancelled into the typed retriable DeadlineExceeded.
    bool watchdog_fired = false;
    std::string watchdog_reason;
  };
  std::map<int64_t, Running> running;

  /// Live (queued + running) job count per tenant; a tenant is registered
  /// with the memory governor exactly while its count is positive.
  std::map<std::string, int> tenant_live;

  std::thread dispatcher;
  /// Monitor thread per running ticket id; a finishing monitor moves its
  /// own entry to `retired` for the dispatcher (or Shutdown) to join.
  std::map<int64_t, std::thread> monitors;
  std::vector<std::thread> retired;

  QueueState& QueueLocked(const std::string& name) {
    auto it = queues.find(name);
    if (it == queues.end()) {
      it = queues.emplace(name, QueueState{}).first;
      auto w = options.queue_weights.find(name);
      it->second.weight = w == options.queue_weights.end()
                              ? options.default_queue_weight
                              : w->second;
      clock.SetWeight(name, it->second.weight);
    }
    return it->second;
  }

  bool PendingEmptyLocked() const {
    for (const auto& [name, q] : queues) {
      if (!q.pending.empty()) return false;
    }
    return true;
  }

  void EnqueueLocked(Pending p) {
    QueueState& q = QueueLocked(p.submission.queue);
    if (q.pending.empty() && q.running == 0) {
      clock.OnBacklogged(p.submission.queue);
    }
    int priority = p.submission.priority;
    auto pos = std::find_if(
        q.pending.begin(), q.pending.end(), [&](const Pending& other) {
          return other.submission.priority < priority ||
                 (other.submission.priority == priority && other.seq > p.seq);
        });
    q.pending.insert(pos, std::move(p));
  }

  void TenantAcquireLocked(const std::string& tenant) {
    if (++tenant_live[tenant] != 1 || m3r == nullptr) return;
    auto it = options.tenant_quotas.find(tenant);
    m3r->governor().TenantJoin(tenant,
                               it == options.tenant_quotas.end() ? 0
                                                                 : it->second);
  }

  void TenantReleaseLocked(const std::string& tenant) {
    auto it = tenant_live.find(tenant);
    if (it == tenant_live.end()) return;
    if (--it->second > 0) return;
    tenant_live.erase(it);
    if (m3r != nullptr) m3r->governor().TenantLeave(tenant);
  }

  /// Ticket cancel hook: a running job is cancelled through its handle
  /// (the monitor sees the terminal result); a queued job is failed with
  /// Cancelled without ever dispatching.
  void CancelTicket(int64_t id) {
    std::unique_lock<std::mutex> lock(mu);
    auto rit = running.find(id);
    if (rit != running.end()) {
      rit->second.handle->Cancel();
      return;
    }
    for (auto& [name, q] : queues) {
      for (auto it = q.pending.begin(); it != q.pending.end(); ++it) {
        if (it->state->id != id) continue;
        Pending p = std::move(*it);
        q.pending.erase(it);
        q.cancelled++;
        TenantReleaseLocked(p.submission.tenant);
        api::JobResult result;
        result.status = Status::Cancelled("cancelled while queued");
        p.state->Complete(std::move(result), api::TicketPhase::kCancelled);
        lock.unlock();
        cv.notify_all();
        return;
      }
    }
    // Terminal or unknown: nothing to do.
  }

  /// Preempt the lowest-priority running job if the incoming priority is
  /// strictly higher (ties keep running — preemption must buy priority,
  /// not churn). Called at admission with `mu` held.
  void MaybePreemptLocked(int incoming_priority) {
    if (!options.preemption) return;
    if (static_cast<int>(running.size()) < options.max_inflight) return;
    Running* victim = nullptr;
    for (auto& [id, r] : running) {
      if (r.preempt_requested) continue;
      if (r.state->priority >= incoming_priority) continue;
      if (victim == nullptr || r.state->priority < victim->state->priority ||
          (r.state->priority == victim->state->priority &&
           r.state->id > victim->state->id)) {
        victim = &r;
      }
    }
    if (victim == nullptr) return;
    victim->preempt_requested = true;
    victim->handle->Cancel();
  }

  /// Pick the next job: the highest priority at the head of any backlogged
  /// queue wins; within that band, the queue with the smallest fair-share
  /// virtual time. Returns true when a job was dispatched.
  bool DispatchOneLocked() {
    int best_priority = 0;
    std::vector<std::string> candidates;
    for (auto& [name, q] : queues) {
      if (q.pending.empty()) continue;
      int head = q.pending.front().submission.priority;
      if (candidates.empty() || head > best_priority) {
        best_priority = head;
        candidates.assign(1, name);
      } else if (head == best_priority) {
        candidates.push_back(name);
      }
    }
    if (candidates.empty()) return false;
    std::string chosen = clock.PickMin(candidates);
    QueueState& q = queues[chosen];
    Pending p = std::move(q.pending.front());
    q.pending.pop_front();
    q.running++;

    api::JobConf conf = p.submission.conf;
    if (m3r != nullptr) {
      // Make the tenant quota bind: clamp this job's cache share to its
      // tenant's current quota (M3REngine sets the share on every submit;
      // the governor mirrors the quota itself on TenantJoin).
      double quota = m3r->governor().TenantQuota(p.submission.tenant);
      if (quota < 1.0) {
        conf.SetDouble(
            api::conf::kMemoryShareCache,
            std::min(api::knobs::Double(conf, api::conf::kMemoryShareCache),
                     quota));
      }
    }

    int64_t id = p.state->id;
    p.state->MarkRunning();
    auto handle =
        std::make_shared<api::JobHandle>(engine->SubmitAsync(conf));
    Running r;
    r.state = p.state;
    r.submission = std::move(p.submission);
    r.handle = handle;
    r.seq = p.seq;
    std::string queue_name = r.submission.queue;
    auto state = r.state;
    // Watchdog budgets come from the job's own conf: a deadline is a
    // property of the submission, not of the server.
    double timeout_sec = api::knobs::Double(conf, api::conf::kJobTimeoutSec);
    double stall_sec =
        api::knobs::Double(conf, api::conf::kJobHeartbeatStallSec);
    running.emplace(id, std::move(r));
    monitors[id] = std::thread(
        [this, id, handle, state, queue_name, timeout_sec, stall_sec] {
          MonitorJob(id, handle, state, queue_name, timeout_sec, stall_sec);
        });
    return true;
  }

  /// One thread per running job: mirrors engine progress/counters plus the
  /// scheduler's live gauges into the ticket, enforces the job's watchdog
  /// budgets, then settles the outcome.
  void MonitorJob(int64_t id, std::shared_ptr<api::JobHandle> handle,
                  std::shared_ptr<api::JobTicket::State> state,
                  const std::string& queue_name, double timeout_sec,
                  double stall_sec) {
    const auto started = std::chrono::steady_clock::now();
    uint64_t last_epoch = handle->HeartbeatEpoch();
    auto last_beat = started;
    while (!handle->WaitFor(/*seconds=*/0.002)) {
      // Watchdog: total-runtime cap, plus a heartbeat stall budget — the
      // epoch advances on every task completion and phase milestone, so a
      // frozen epoch across the budget means the job is hung, not slow.
      const auto now = std::chrono::steady_clock::now();
      uint64_t epoch = handle->HeartbeatEpoch();
      if (epoch != last_epoch) {
        last_epoch = epoch;
        last_beat = now;
      }
      std::string why;
      double elapsed = std::chrono::duration<double>(now - started).count();
      double stalled = std::chrono::duration<double>(now - last_beat).count();
      if (timeout_sec > 0 && elapsed > timeout_sec) {
        why = "exceeded m3r.job.timeout.sec=" + std::to_string(timeout_sec);
      } else if (stall_sec > 0 && stalled > stall_sec) {
        why = "no heartbeat for m3r.job.heartbeat.stall.sec=" +
              std::to_string(stall_sec);
      }
      if (!why.empty()) {
        bool fire = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = running.find(id);
          // A preemption already in flight keeps its own settling path;
          // firing once is enough for everyone else.
          if (it != running.end() && !it->second.watchdog_fired &&
              !it->second.preempt_requested) {
            it->second.watchdog_fired = true;
            it->second.watchdog_reason = why;
            fire = true;
          }
        }
        if (fire) handle->Cancel();
      }
      double progress = handle->Progress();
      api::Counters live = handle->LiveCounters();
      int64_t queued = 0, running_now = 0, completed = 0, share_mille = 0;
      int64_t watchdog_kills_now = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = queues.find(queue_name);
        if (it != queues.end()) {
          queued = static_cast<int64_t>(it->second.pending.size());
          running_now = it->second.running;
          completed = it->second.completed;
          watchdog_kills_now = it->second.watchdog_kills;
          if (total_completed_sim > 0) {
            share_mille = static_cast<int64_t>(
                1000.0 * it->second.completed_sim_seconds /
                total_completed_sim);
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->progress = progress;
        state->live = live;
        namespace c = api::counters;
        state->live.Increment(c::kSchedulerGroup, c::kSchedQueueQueued,
                              queued);
        state->live.Increment(c::kSchedulerGroup, c::kSchedQueueRunning,
                              running_now);
        state->live.Increment(c::kSchedulerGroup, c::kSchedQueueCompleted,
                              completed);
        state->live.Increment(c::kSchedulerGroup, c::kSchedQueueShareMille,
                              share_mille);
        state->live.Increment(
            c::kSchedulerGroup, c::kSchedWaitMs,
            static_cast<int64_t>(
                1000 * SecondsBetween(state->admitted_at,
                                      state->dispatched_at)));
        state->live.Increment(c::kSchedulerGroup, c::kSchedAttempts,
                              state->attempts);
        state->live.Increment(c::kSchedulerGroup, c::kSchedWatchdogKills,
                              watchdog_kills_now);
      }
    }
    api::JobResult result = handle->Wait();
    SettleJob(id, std::move(result));
  }

  void SettleJob(int64_t id, api::JobResult result) {
    std::unique_lock<std::mutex> lock(mu);
    auto rit = running.find(id);
    M3R_CHECK(rit != running.end()) << "settled job " << id << " not running";
    Running r = std::move(rit->second);
    running.erase(rit);
    QueueState& q = queues[r.submission.queue];
    q.running--;
    // Service consumed is charged whether or not the run completed —
    // preempted/cancelled runs used the engine too.
    clock.Charge(r.submission.queue, std::max(result.sim_seconds, 0.0));

    bool user_cancel = false;
    {
      std::lock_guard<std::mutex> ticket_lock(r.state->mu);
      user_cancel = r.state->cancel_requested;
    }

    if (result.status.IsCancelled() && r.preempt_requested && !user_cancel &&
        !r.watchdog_fired && accepting && !abort) {
      // Preempted to make room for a higher priority: back into its queue
      // at its original position in the band. The engine aborted the run
      // cleanly (partial output removed), so the re-run starts fresh.
      q.preempted++;
      r.state->MarkPreempted();
      EnqueueLocked(Pending{r.state, std::move(r.submission), r.seq});
    } else {
      if (result.status.IsCancelled() && r.watchdog_fired && !user_cancel) {
        // The watchdog cancelled this run, not the user: surface the typed
        // retriable DeadlineExceeded so clients back off and resubmit
        // instead of treating the job as deliberately cancelled.
        result.status = Status::DeadlineExceeded(
            "job '" + r.state->job_name + "' killed by watchdog: " +
            r.watchdog_reason);
        q.watchdog_kills++;
        api::metrics::Set(&result, api::metric::kSchedWatchdogKills, 1);
      }
      api::TicketPhase phase;
      if (result.ok()) {
        phase = api::TicketPhase::kSucceeded;
        q.completed++;
        q.completed_sim_seconds += result.sim_seconds;
        total_completed_sim += result.sim_seconds;
      } else if (result.status.IsCancelled()) {
        phase = api::TicketPhase::kCancelled;
        q.cancelled++;
      } else {
        phase = api::TicketPhase::kFailed;
        q.failed++;
      }
      double wait_seconds = 0;
      {
        std::lock_guard<std::mutex> ticket_lock(r.state->mu);
        wait_seconds =
            SecondsBetween(r.state->admitted_at, r.state->dispatched_at);
        api::metrics::Set(&result, api::metric::kSchedWaitMs,
                          static_cast<int64_t>(1000 * wait_seconds));
        api::metrics::Set(&result, api::metric::kSchedAttempts,
                          r.state->attempts);
        api::metrics::Set(&result, api::metric::kSchedPreemptions,
                          r.state->preemptions);
      }
      q.total_wait_seconds += wait_seconds;
      TenantReleaseLocked(r.submission.tenant);
      r.state->Complete(std::move(result), phase);
    }

    // Retire this monitor's own thread object for the dispatcher to join.
    auto mit = monitors.find(id);
    if (mit != monitors.end()) {
      retired.push_back(std::move(mit->second));
      monitors.erase(mit);
    }
    lock.unlock();
    cv.notify_all();
  }

  void FlushPendingLocked() {
    for (auto& [name, q] : queues) {
      while (!q.pending.empty()) {
        Pending p = std::move(q.pending.front());
        q.pending.pop_front();
        q.cancelled++;
        TenantReleaseLocked(p.submission.tenant);
        api::JobResult result;
        result.status = Status::Cancelled("server shut down (abort)");
        p.state->Complete(std::move(result), api::TicketPhase::kCancelled);
      }
    }
  }

  void DispatcherLoop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (!retired.empty()) {
        std::vector<std::thread> done;
        done.swap(retired);
        lock.unlock();
        for (auto& t : done) {
          if (t.joinable()) t.join();
        }
        lock.lock();
        continue;  // state may have moved while unlocked
      }
      if (abort) FlushPendingLocked();
      if (!abort && static_cast<int>(running.size()) < options.max_inflight &&
          DispatchOneLocked()) {
        cv.notify_all();
        continue;
      }
      if (!accepting && PendingEmptyLocked() && running.empty()) return;
      cv.wait(lock);
    }
  }
};

// ---------------------------------------------------------------------------
// JobServer facade
// ---------------------------------------------------------------------------

JobServer::JobServer(std::shared_ptr<api::Engine> engine)
    : JobServer(std::move(engine), Options()) {}

JobServer::JobServer(std::shared_ptr<api::Engine> engine, Options options)
    : core_(std::make_shared<Core>()) {
  M3R_CHECK(engine != nullptr) << "JobServer needs an engine";
  core_->engine = std::move(engine);
  options.max_inflight = std::max(1, options.max_inflight);
  options.queue_depth = std::max(1, options.queue_depth);
  core_->options = std::move(options);
  core_->m3r = dynamic_cast<M3REngine*>(core_->engine.get());
  engine_name_ = core_->engine->Name();
  std::shared_ptr<Core> core = core_;
  core_->dispatcher = std::thread([core] { core->DispatcherLoop(); });
}

JobServer::~JobServer() { Shutdown(DrainMode::kDrain); }

Result<api::JobTicket> JobServer::Submit(api::Submission submission) {
  return SubmitInternal(std::move(submission),
                        core_->options.admission == AdmissionMode::kBlock);
}

Result<api::JobTicket> JobServer::SubmitInternal(api::Submission submission,
                                                 bool block_when_full) {
  Status valid = submission.Validate();
  if (!valid.ok()) return valid;
  // The watchdog reads its budgets from the conf at dispatch, so a bad
  // knob must fail here rather than after the job has waited in a queue.
  M3R_RETURN_NOT_OK(api::knobs::ValidateKnobs(submission.conf));

  std::shared_ptr<Core> core = core_;
  std::unique_lock<std::mutex> lock(core->mu);
  if (!core->accepting) {
    return Status::FailedPrecondition("job server is shut down");
  }
  Core::QueueState& q = core->QueueLocked(submission.queue);
  if (static_cast<int>(q.pending.size()) >= core->options.queue_depth) {
    if (!block_when_full) {
      q.rejected++;
      return Status::Overloaded(
          "queue '" + submission.queue + "' is at its depth limit (" +
          std::to_string(core->options.queue_depth) + " jobs waiting)");
    }
    core->cv.wait(lock, [&] {
      return !core->accepting ||
             static_cast<int>(q.pending.size()) < core->options.queue_depth;
    });
    if (!core->accepting) {
      return Status::FailedPrecondition("job server is shut down");
    }
  }

  int64_t id = core->next_id++;
  auto state = std::make_shared<api::JobTicket::State>();
  state->id = id;
  state->tenant = submission.tenant;
  state->queue = submission.queue;
  state->job_name = submission.conf.JobName();
  state->priority = submission.priority;
  state->deadline_hint = submission.deadline_hint;
  state->MarkAdmitted();
  std::weak_ptr<Core> weak = core->weak_from_this();
  state->on_cancel = [weak, id] {
    if (std::shared_ptr<Core> c = weak.lock()) c->CancelTicket(id);
  };
  core->TenantAcquireLocked(submission.tenant);
  q.submitted++;
  int priority = submission.priority;
  core->EnqueueLocked(
      Core::Pending{state, std::move(submission), core->next_seq++});
  core->MaybePreemptLocked(priority);
  lock.unlock();
  core->cv.notify_all();
  return api::JobTicket(state);
}

std::vector<JobServer::QueueStats> JobServer::Stats() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  std::vector<QueueStats> out;
  out.reserve(core_->queues.size());
  for (const auto& [name, q] : core_->queues) {
    QueueStats s;
    s.queue = name;
    s.weight = q.weight;
    s.queued = static_cast<int>(q.pending.size());
    s.running = q.running;
    s.submitted = q.submitted;
    s.completed = q.completed;
    s.failed = q.failed;
    s.cancelled = q.cancelled;
    s.preempted = q.preempted;
    s.rejected = q.rejected;
    s.watchdog_kills = q.watchdog_kills;
    s.completed_sim_seconds = q.completed_sim_seconds;
    s.total_wait_seconds = q.total_wait_seconds;
    s.virtual_time = core_->clock.VirtualTime(name);
    s.share_of_completed = core_->total_completed_sim > 0
                               ? q.completed_sim_seconds /
                                     core_->total_completed_sim
                               : 0;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<int64_t> JobServer::ActiveTickets(const std::string& queue) const {
  std::lock_guard<std::mutex> lock(core_->mu);
  std::vector<int64_t> out;
  for (const auto& [name, q] : core_->queues) {
    if (!queue.empty() && name != queue) continue;
    for (const Core::Pending& p : q.pending) out.push_back(p.state->id);
  }
  for (const auto& [id, r] : core_->running) {
    if (queue.empty() || r.submission.queue == queue) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void JobServer::Shutdown(DrainMode mode) {
  std::shared_ptr<Core> core = core_;
  {
    std::lock_guard<std::mutex> lock(core->mu);
    core->accepting = false;
    if (mode == DrainMode::kAbort) {
      core->abort = true;
      for (auto& [id, r] : core->running) r.handle->Cancel();
    }
  }
  core->cv.notify_all();

  std::lock_guard<std::mutex> shutdown_lock(core->shutdown_mu);
  if (core->dispatcher.joinable()) core->dispatcher.join();
  // The dispatcher exits only once every queue is empty and nothing runs;
  // whatever monitor threads remain are terminal and just need joining.
  std::map<int64_t, std::thread> monitors;
  std::vector<std::thread> retired;
  {
    std::lock_guard<std::mutex> lock(core->mu);
    monitors.swap(core->monitors);
    retired.swap(core->retired);
  }
  for (auto& [id, t] : monitors) {
    if (t.joinable()) t.join();
  }
  for (auto& t : retired) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// Registry + port-based submission
// ---------------------------------------------------------------------------

ServerRegistry& ServerRegistry::Instance() {
  static ServerRegistry* instance = new ServerRegistry();
  return *instance;
}

void ServerRegistry::Bind(int port, std::shared_ptr<JobServer> server) {
  std::lock_guard<std::mutex> lock(mu_);
  servers_[port] = std::move(server);
}

std::shared_ptr<JobServer> ServerRegistry::Lookup(int port) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = servers_.find(port);
  return it == servers_.end() ? nullptr : it->second;
}

void ServerRegistry::Unbind(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  servers_.erase(port);
}

Result<api::JobTicket> SubmitViaPort(api::Submission submission) {
  int port =
      static_cast<int>(submission.conf.GetInt(kJobTrackerPortKey, 9001));
  std::shared_ptr<JobServer> server = ServerRegistry::Instance().Lookup(port);
  if (server == nullptr) {
    return Status::NotFound("no job server bound to port " +
                            std::to_string(port));
  }
  return server->Submit(std::move(submission));
}

Result<api::JobTicket> SubmitViaPort(const api::JobConf& conf) {
  return SubmitViaPort(api::Submission::FromConf(conf));
}

}  // namespace m3r::engine

#include "hadoop/hadoop_engine.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "api/distributed_cache.h"
#include "api/knobs.h"
#include "api/metrics.h"
#include "api/output_format.h"
#include "api/phases.h"
#include "api/task_runner.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "hadoop/map_task.h"
#include "hadoop/reduce_task.h"
#include "sim/timeline.h"

namespace m3r::hadoop {

namespace {

namespace metric = api::metric;
namespace metrics = api::metrics;
namespace phase = api::phase;

/// Serialized form of the configuration, written as the job file
/// (job.xml) to the jobtracker's file system on submit.
std::string SerializeConf(const api::JobConf& conf) {
  std::string out = "<configuration>\n";
  for (const auto& [k, v] : conf.raw()) {
    out += "  <property><name>" + k + "</name><value>" + v +
           "</value></property>\n";
  }
  out += "</configuration>\n";
  return out;
}

/// Task indices by finish time, latest first (ties in index order): the
/// order in which stragglers get speculative slots.
std::vector<size_t> LatestFirst(const std::vector<double>& finishes) {
  std::vector<size_t> order(finishes.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return finishes[a] > finishes[b];
  });
  return order;
}

/// One task phase as booked on the simulated cluster. Per task: the node
/// and finish time of whichever copy finished first, when its first
/// attempt started, and how long its successful attempt ran.
struct PhaseBook {
  std::vector<int> nodes;
  std::vector<double> first_starts;
  std::vector<double> finishes;
  std::vector<double> durations;
  int64_t failed_attempts = 0;
  /// Successful attempts placed on one of their preferred nodes.
  int64_t local = 0;
  int64_t backups = 0;
  /// Backups that finished before their task's own attempt chain.
  int64_t backup_wins = 0;
  /// The phase's end: its latest finish, and never before it started.
  double done = 0;
};

}  // namespace

/// One submission's run through the engine (paper §3.1): the per-job state
/// every phase shares, and the phases in the order Execute calls them.
/// Every exit, success or failure, leaves through Finish. Both task phases
/// go through one attempt path: RunAttempts executes them, Book accounts
/// them on the simulated cluster.
class HadoopEngine::JobRun {
 public:
  JobRun(HadoopEngine* engine, const api::JobConf& conf)
      : e_(*engine), spec_(engine->options_.cluster), conf_(conf) {}
  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  api::JobResult Run() { return Finish(Execute()); }

 private:
  Status Execute() {
    M3R_RETURN_NOT_OK(Configure());
    M3R_RETURN_NOT_OK(ClaimOutput());
    M3R_RETURN_NOT_OK(SubmitJob());
    M3R_RETURN_NOT_OK(RunMap());
    M3R_RETURN_NOT_OK(RunReduce());
    Report();
    return Commit();
  }

  /// Validates the conf (the same knob table as M3R: a conf either engine
  /// would reject fails here too, before any output is claimed), reads the
  /// Hadoop task-retry knobs, and installs the job's fault injection and
  /// integrity context on the file system until the run ends.
  Status Configure() {
    M3R_RETURN_NOT_OK(api::knobs::ValidateKnobs(conf_));
    job_id_ = e_.job_counter_++;
    num_reduce_ = conf_.NumReduceTasks();
    map_max_attempts_ = static_cast<int>(
        std::max<int64_t>(1, conf_.GetInt(api::conf::kMapMaxAttempts, 4)));
    reduce_max_attempts_ = static_cast<int>(
        std::max<int64_t>(1, conf_.GetInt(api::conf::kReduceMaxAttempts, 4)));
    max_tracker_failures_ = static_cast<int>(
        std::max<int64_t>(1, conf_.GetInt(api::conf::kMaxTrackerFailures, 4)));
    speculative_ = conf_.GetBool(api::conf::kSpeculativeExecution, false);
    slow_threshold_ =
        conf_.GetDouble(api::conf::kSpeculativeSlowTaskThreshold, 1.5);
    node_failures_.assign(static_cast<size_t>(spec_.num_nodes), 0);

    // Deterministic fault injection: on the file system (dfs.read /
    // dfs.write sites) and in tasks (hadoop.map / hadoop.reduce sites).
    // End-to-end integrity (m3r.integrity.mode): block checksums on the
    // file system, spill and fetch checksums in tasks.
    fault_ = FaultInjector::FromSites(
        api::knobs::Uint64(conf_, api::conf::kFaultSeed),
        api::knobs::FaultSites(conf_));
    integrity_ = IntegrityContext::ForJob(
        static_cast<IntegrityMode>(
            api::knobs::Choice(conf_, api::conf::kIntegrityMode)),
        fault_);
    fault_guard_.fs = e_.fs_.get();
    e_.fs_->SetFaultInjector(fault_);
    e_.fs_->SetIntegrity(integrity_);
    return Status::OK();
  }

  /// The commit protocol's claim on the output directory. Once it holds,
  /// everything under the directory belongs to this job.
  Status ClaimOutput() {
    M3R_RETURN_NOT_OK(api::MakeOutputFormat(conf_)->CheckOutputSpecs(
        conf_, *e_.fs_));
    M3R_RETURN_NOT_OK(committer_.SetupJob(conf_, *e_.fs_));
    output_claimed_ = true;
    return Status::OK();
  }

  /// Jobtracker handshake, job files, distributed-cache localization and
  /// splits (paper §3.1).
  Status SubmitJob() {
    const std::string job_xml = SerializeConf(conf_);
    const std::string job_dir = "/system/mapred/job_" + std::to_string(job_id_);
    M3R_RETURN_NOT_OK(e_.fs_->WriteFile(job_dir + "/job.xml", job_xml));
    clock_.Charge(phase::kSubmit, spec_.job_submit_overhead_s +
                                      e_.cost_.DfsWrite(job_xml.size()));

    // Every node pulls the cache files once. Hadoop materializes them into
    // each task's working directory; here they go into the conf tasks see.
    if (!api::DistributedCache::GetCacheFiles(conf_).empty()) {
      M3R_ASSIGN_OR_RETURN(auto localized,
                           api::DistributedCache::Localize(conf_, *e_.fs_));
      uint64_t cache_bytes = 0;
      for (const auto& [p, content] : localized) cache_bytes += content->size();
      // Nodes localize in parallel; charge one replicated read fan-out.
      clock_.Charge(phase::kSubmit,
                    e_.cost_.DfsRead(cache_bytes, /*local=*/false));
      api::DistributedCache::InstallIntoConf(localized, &conf_);
      metrics::Set(&result_, metric::kDistributedCacheBytes,
                   static_cast<int64_t>(cache_bytes) * spec_.num_nodes);
    }

    M3R_ASSIGN_OR_RETURN(splits_, api::MakeInputFormat(conf_)->GetSplits(
                                      conf_, *e_.fs_, spec_.total_slots()));
    // Split metadata is also written to the job directory.
    return e_.fs_->WriteFile(job_dir + "/job.split",
                             std::string(splits_.size() * 64, 's'));
  }

  Status RunMap() {
    const double map_start = clock_.now();
    e_.ReportProgress(0.05, &result_.counters);
    map_attempts_.resize(splits_.size());
    M3R_RETURN_NOT_OK(RunAttempts(
        map_max_attempts_, 0.05, 0.55,
        [&](int task, int attempt) {
          return RunHadoopMapTask(conf_, *e_.fs_,
                                  *splits_[static_cast<size_t>(task)], task,
                                  num_reduce_, ArbitraryNode(task, attempt),
                                  attempt, fault_.get(), integrity_.get());
        },
        &map_attempts_));

    std::vector<std::vector<int>> locations;
    for (const api::InputSplitPtr& split : splits_) {
      locations.push_back(split->GetLocations());
    }
    const sim::CostModel& cost = e_.cost_;
    map_ = Book(map_start, map_attempts_, locations,
                [&](size_t, const MapTaskResult& mr, bool local, int) {
                  double d = spec_.task_jvm_start_s;
                  d += cost.DfsRead(mr.input_bytes, local);
                  // The spill sorts are charged to the job-wide sort phase.
                  d += cost.Cpu(mr.work);
                  d += cost.DiskWrite(mr.spill_write_bytes);
                  if (mr.merge_bytes > 0) {
                    d += cost.DiskRead(mr.merge_bytes) +
                         cost.DiskWrite(mr.merge_bytes);
                  }
                  if (num_reduce_ == 0) d += cost.DfsWrite(mr.output_bytes);
                  return d;
                });

    for (const std::vector<MapTaskResult>& attempts : map_attempts_) {
      for (const MapTaskResult& mr : attempts) sort_work_ += mr.sort;
      const MapTaskResult& mr = attempts.back();
      metrics::Add(&result_, metric::kHdfsReadBytes,
                   static_cast<int64_t>(mr.input_bytes));
      metrics::Add(&result_, metric::kSpillWriteBytes,
                   static_cast<int64_t>(mr.spill_write_bytes));
      metrics::Add(&result_, metric::kMapMergeBytes,
                   static_cast<int64_t>(mr.merge_bytes));
      // FILE_BYTES_WRITTEN sums two metrics (spill and merge), so it is no
      // row's mirror.
      result_.counters.Increment(
          api::counters::kFsGroup, api::counters::kFileBytesWritten,
          static_cast<int64_t>(mr.spill_write_bytes + mr.merge_bytes));
      if (num_reduce_ == 0) {
        metrics::Add(&result_, metric::kHdfsWriteBytes,
                     static_cast<int64_t>(mr.output_bytes));
      }
    }
    metrics::Set(&result_, metric::kMapTasks,
                 static_cast<int64_t>(splits_.size()));
    metrics::Set(&result_, metric::kDataLocalMaps, map_.local);
    clock_.AdvanceTo(phase::kMapPhase, map_.done);
    return Status::OK();
  }

  Status RunReduce() {
    if (num_reduce_ == 0) return Status::OK();
    // Partition p's input: every map task's segment p, with its stamp.
    const size_t num_reduce = static_cast<size_t>(num_reduce_);
    std::vector<std::vector<const std::string*>> inputs(num_reduce);
    std::vector<std::vector<uint32_t>> input_crcs(num_reduce);
    for (size_t p = 0; p < num_reduce; ++p) {
      for (const std::vector<MapTaskResult>& attempts : map_attempts_) {
        const MapTaskResult& mr = attempts.back();
        inputs[p].push_back(&mr.partition_segments[p]);
        input_crcs[p].push_back(mr.segment_crcs.empty() ? 0
                                                        : mr.segment_crcs[p]);
      }
    }
    std::vector<std::vector<ReduceTaskResult>> reduce_attempts(num_reduce);
    M3R_RETURN_NOT_OK(RunAttempts(
        reduce_max_attempts_, 0.6, 0.35,
        [&](int p, int attempt) {
          return RunHadoopReduceTask(
              conf_, *e_.fs_, p, inputs[static_cast<size_t>(p)],
              ArbitraryNode(1000000 + p, attempt), attempt, fault_.get(),
              input_crcs[static_cast<size_t>(p)], integrity_.get());
        },
        &reduce_attempts));

    const sim::CostModel& cost = e_.cost_;
    reduce_ = Book(map_.done, reduce_attempts,
                   std::vector<std::vector<int>>(num_reduce),
                   [&](size_t p, const ReduceTaskResult& rr, bool, int node) {
                     double d = spec_.task_jvm_start_s;
                     // Fetch each map task's segment: disk read at the
                     // mapper plus a network hop unless the map ran on this
                     // reducer's node.
                     for (size_t m = 0; m < inputs[p].size(); ++m) {
                       uint64_t bytes = inputs[p][m]->size();
                       if (bytes == 0) continue;
                       d += cost.DiskRead(bytes);
                       if (map_.nodes[m] != node) d += cost.NetTransfer(bytes);
                     }
                     // Out-of-core merge: one write+read pass over the
                     // merged bytes.
                     d += cost.DiskWrite(rr.merge_bytes) +
                          cost.DiskRead(rr.merge_bytes);
                     d += cost.Cpu(rr.work);
                     d += cost.DfsWrite(rr.output_bytes);
                     return d;
                   });

    for (const std::vector<ReduceTaskResult>& attempts : reduce_attempts) {
      const ReduceTaskResult& rr = attempts.back();
      metrics::Add(&result_, metric::kShuffleBytes,
                   static_cast<int64_t>(rr.shuffle_bytes));
      metrics::Add(&result_, metric::kReduceMergeBytes,
                   static_cast<int64_t>(rr.merge_bytes));
      metrics::Add(&result_, metric::kHdfsWriteBytes,
                   static_cast<int64_t>(rr.output_bytes));
    }
    clock_.AdvanceTo(phase::kReducePhase, reduce_.done);
    metrics::Set(&result_, metric::kReduceTasks, num_reduce_);
    return Status::OK();
  }

  /// Every task of one phase, executed for real on host threads. A failed
  /// attempt (injected fault, or user code surfacing a retriable status)
  /// is aborted and re-runs under a fresh attempt number, up to
  /// `max_attempts`; keyed fault decisions make each task's retry history
  /// deterministic regardless of thread interleaving. Each completed task
  /// moves the progress from `progress_from` by its share of
  /// `progress_span` (§5.3). Fails with the first task, in index order,
  /// whose last attempt failed.
  template <typename Result, typename RunFn>
  Status RunAttempts(int max_attempts, double progress_from,
                     double progress_span, const RunFn& run,
                     std::vector<std::vector<Result>>* attempts) {
    const size_t tasks = attempts->size();
    std::atomic<size_t> done{0};
    std::atomic<bool> cancelled{false};
    ParallelFor(
        tasks,
        [&](size_t i) {
          if (e_.CancelRequested()) {
            cancelled.store(true, std::memory_order_relaxed);
            return;
          }
          std::vector<Result>& mine = (*attempts)[i];
          const int task = static_cast<int>(i);
          for (int a = 0; a < max_attempts; ++a) {
            mine.push_back(run(task, a));
            if (mine.back().status.ok()) break;
            committer_.AbortTask(conf_, *e_.fs_, task, a);
            if (!mine.back().status.IsRetriable()) break;
          }
          e_.ReportProgress(progress_from +
                                progress_span * static_cast<double>(++done) /
                                    static_cast<double>(tasks),
                            &result_.counters);
        },
        e_.options_.host_threads);
    if (cancelled.load(std::memory_order_relaxed) || e_.CancelRequested()) {
      return Status::Cancelled("job cancelled");
    }
    for (const std::vector<Result>& mine : *attempts) {
      if (!mine.back().status.ok()) return mine.back().status;
      // Only the successful attempt's counters count, so a recovered run's
      // counters match a fault-free run exactly.
      result_.counters.MergeFrom(mine.back().counters);
    }
    return Status::OK();
  }

  /// Accounts one phase's attempts on a fresh slot timeline from `start_s`:
  /// the jobtracker hands each attempt to a polling task tracker, so every
  /// assignment waits half a heartbeat (the dispatch latency the paper
  /// calls out in §6.1), then occupies a slot for `duration(task, attempt,
  /// local, node)`, which is evaluated after placement.
  ///
  /// Each task's attempts are booked in index order, failed ones too: a
  /// retry becomes ready only once the jobtracker has seen its predecessor
  /// fail, which is what stretches the makespan under injected faults. A
  /// retry avoids the nodes its task failed on; a node that reaches
  /// mapred.max.tracker.failures (counted across the job's phases) is
  /// blacklisted for the rest of the job.
  ///
  /// Speculative execution: a task still running well past the mean
  /// attempt duration since its own first attempt started (typically a
  /// retry chain; time queued for a slot does not count) gets a backup
  /// copy launched once the lag is evident. Backups are booked after every
  /// task's own attempts, as a jobtracker serves pending tasks first, so
  /// they never delay one; as in LATE, the task that would finish last
  /// gets the first free slot. The task finishes when the first copy does.
  template <typename Result, typename DurationFn>
  PhaseBook Book(double start_s,
                 const std::vector<std::vector<Result>>& attempts,
                 const std::vector<std::vector<int>>& preferred,
                 const DurationFn& duration) {
    sim::SlotTimeline timeline(spec_, start_s);
    const double dispatch = spec_.heartbeat_interval_s / 2;
    auto place = [&](size_t task, const Result& attempt, bool* local,
                     double ready, const std::vector<int>& avoid) {
      return timeline.ScheduleFn(
          ready,
          [&](bool is_local, int node) {
            return duration(task, attempt, is_local, node);
          },
          dispatch, preferred[task], local, avoid);
    };

    const size_t tasks = attempts.size();
    PhaseBook book;
    book.nodes.assign(tasks, 0);
    book.first_starts.assign(tasks, start_s);
    book.finishes.assign(tasks, start_s);
    book.durations.assign(tasks, 0);
    for (size_t i = 0; i < tasks; ++i) {
      double ready = start_s;
      std::vector<int> failed_on;
      for (size_t a = 0; a < attempts[i].size(); ++a) {
        std::vector<int> avoid = blacklisted_;
        avoid.insert(avoid.end(), failed_on.begin(), failed_on.end());
        bool local = false;
        const sim::ScheduledTask t =
            place(i, attempts[i][a], &local, ready, avoid);
        if (a == 0) book.first_starts[i] = t.start_s;
        if (!attempts[i][a].status.ok()) {
          ++book.failed_attempts;
          failed_on.push_back(t.node);
          if (++node_failures_[static_cast<size_t>(t.node)] ==
              max_tracker_failures_) {
            blacklisted_.push_back(t.node);
          }
          ready = t.finish_s;
          continue;
        }
        book.nodes[i] = t.node;
        if (local) ++book.local;
        book.finishes[i] = t.finish_s;
        book.durations[i] = t.finish_s - t.start_s;
      }
    }

    if (speculative_ && tasks > 1) {
      double mean = 0;
      for (double d : book.durations) mean += d;
      mean /= static_cast<double>(tasks);
      for (size_t i : LatestFirst(book.finishes)) {
        const double launch = book.first_starts[i] + slow_threshold_ * mean;
        if (book.finishes[i] <= launch) continue;
        const sim::ScheduledTask backup =
            place(i, attempts[i].back(), nullptr, launch, blacklisted_);
        ++book.backups;
        if (backup.finish_s < book.finishes[i]) {
          book.finishes[i] = backup.finish_s;
          book.nodes[i] = backup.node;
          ++book.backup_wins;
        }
      }
    }

    book.done = start_s;
    for (double f : book.finishes) book.done = std::max(book.done, f);
    return book;
  }

  /// Hadoop's assignment of tasks to hosts is dynamic: output placement is
  /// modelled as an arbitrary (but deterministic) host per task attempt,
  /// which is why data written by Hadoop generally does NOT line up with
  /// M3R's stable partition->place mapping (paper §6.1.1).
  int ArbitraryNode(int task, int attempt) const {
    uint64_t h = static_cast<uint64_t>(job_id_) * 2654435761u +
                 static_cast<uint64_t>(task) * 40503u +
                 static_cast<uint64_t>(attempt) * 104729u + 17;
    return static_cast<int>(h % static_cast<uint64_t>(spec_.num_nodes));
  }

  /// The task-retry tallies, and the integrity layer's tallies and
  /// checksum CPU. The checksum and sort-kernel work happened inside tasks
  /// spread across every slot, so the makespan pays the per-slot share of
  /// each.
  void Report() {
    metrics::Set(&result_, metric::kMapTaskFailures, map_.failed_attempts);
    metrics::Set(&result_, metric::kReduceTaskFailures,
                 reduce_.failed_attempts);
    metrics::Set(&result_, metric::kBlacklistedNodes,
                 static_cast<int64_t>(blacklisted_.size()));
    if (speculative_) {
      metrics::Set(&result_, metric::kSpeculativeMapTasks, map_.backups);
      metrics::Set(&result_, metric::kSpeculativeReduceTasks,
                   reduce_.backups);
      metrics::Set(&result_, metric::kSpeculativeMapWins, map_.backup_wins);
      metrics::Set(&result_, metric::kSpeculativeReduceWins,
                   reduce_.backup_wins);
    }
    if (fault_ != nullptr) {
      metrics::Set(&result_, metric::kInjectedFaults, fault_->InjectedCount());
    }
    metrics::SetIntegrity(&result_, integrity_.get());
    if (integrity_ != nullptr && integrity_->enabled()) {
      clock_.Charge(phase::kIntegrity,
                    e_.cost_.SpreadOverSlots(
                        e_.cost_.Checksum(static_cast<uint64_t>(
                            integrity_->counters->bytes_checksummed.load()))));
    }
    if (const double charge = e_.cost_.Cpu(sort_work_); charge > 0) {
      clock_.Charge(phase::kSort, e_.cost_.SpreadOverSlots(charge));
    }
  }

  Status Commit() {
    if (e_.CancelRequested()) return Status::Cancelled("job cancelled");
    M3R_RETURN_NOT_OK(committer_.CommitJob(conf_, *e_.fs_));
    clock_.Charge(phase::kCommit, spec_.job_commit_overhead_s);
    return Status::OK();
  }

  /// The one exit. A failure before the output was claimed reports only
  /// its status. A later failure aborts the commit protocol, removes the
  /// partial output (no _SUCCESS can survive; an absent directory is what
  /// lets JobClient's job-level retry resubmit cleanly) and fires the
  /// FAILED notification, so job-end listeners hear about mid-run
  /// failures. A failed job does not publish its clock: it reports no
  /// simulated time.
  api::JobResult Finish(Status status) {
    if (!status.ok() && !output_claimed_) {
      api::JobResult rejected;
      rejected.status = std::move(status);
      return rejected;
    }
    if (status.ok()) {
      clock_.Publish(&result_);
    } else {
      committer_.AbortJob(conf_, *e_.fs_);
      e_.fs_->Delete(conf_.OutputPath(), /*recursive=*/true);
      metrics::SetIntegrity(&result_, integrity_.get());
    }
    result_.status = std::move(status);
    result_.wall_seconds = wall_.ElapsedSeconds();
    if (result_.ok()) e_.ReportProgress(1.0, &result_.counters);
    e_.NotifyJobEnd(conf_, result_);
    return std::move(result_);
  }

  HadoopEngine& e_;
  const sim::ClusterSpec& spec_;
  api::JobConf conf_;
  Stopwatch wall_;
  api::JobResult result_;
  api::phases::Clock clock_;
  api::FileOutputCommitter committer_;
  bool output_claimed_ = false;

  int job_id_ = 0;
  int num_reduce_ = 0;
  int map_max_attempts_ = 1;
  int reduce_max_attempts_ = 1;
  int max_tracker_failures_ = 1;
  bool speculative_ = false;
  double slow_threshold_ = 0;

  std::shared_ptr<FaultInjector> fault_;
  std::shared_ptr<IntegrityContext> integrity_;
  /// Clears the job's injector and integrity context from the file system
  /// when the run ends, once Configure installed them.
  struct FaultGuard {
    dfs::FileSystem* fs = nullptr;
    ~FaultGuard() {
      if (fs == nullptr) return;
      fs->SetFaultInjector(nullptr);
      fs->SetIntegrity(nullptr);
    }
  } fault_guard_;

  std::vector<api::InputSplitPtr> splits_;
  std::vector<std::vector<MapTaskResult>> map_attempts_;
  /// Every map attempt's spill sorts, failed ones too.
  sim::CpuWork sort_work_;
  /// Tracker failures per node and the blacklist, across both phases.
  std::vector<int> node_failures_;
  std::vector<int> blacklisted_;
  PhaseBook map_;
  PhaseBook reduce_;
};

HadoopEngine::HadoopEngine(std::shared_ptr<dfs::FileSystem> fs,
                           HadoopEngineOptions options)
    : fs_(std::move(fs)),
      options_(options),
      cost_(options_.cluster) {}

api::JobResult HadoopEngine::Submit(const api::JobConf& conf) {
  return JobRun(this, conf).Run();
}

}  // namespace m3r::hadoop

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
#include "hadoop/scheduler.h"

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

api::JobResult Fail(Status status) {
  api::JobResult r;
  r.status = std::move(status);
  return r;
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

}  // namespace

HadoopEngine::HadoopEngine(std::shared_ptr<dfs::FileSystem> fs,
                           HadoopEngineOptions options)
    : fs_(std::move(fs)),
      options_(options),
      cost_(options_.cluster) {}

api::JobResult HadoopEngine::Submit(const api::JobConf& submitted_conf) {
  // The same knob table as M3R: a conf either engine would reject fails
  // here too, before any output is claimed.
  Status valid = api::knobs::ValidateKnobs(submitted_conf);
  if (!valid.ok()) return Fail(std::move(valid));
  // Local copy: distributed-cache contents are installed into the
  // configuration tasks see (Hadoop materializes them into each task's
  // working directory).
  api::JobConf conf = submitted_conf;
  Stopwatch wall;
  const sim::ClusterSpec& spec = options_.cluster;
  api::JobResult result;
  api::phases::Clock clock;
  int job_id = job_counter_++;

  const int num_reduce = conf.NumReduceTasks();

  // --- Resilience knobs (Hadoop task-retry semantics) ---
  const int map_max_attempts = static_cast<int>(
      std::max<int64_t>(1, conf.GetInt(api::conf::kMapMaxAttempts, 4)));
  const int reduce_max_attempts = static_cast<int>(
      std::max<int64_t>(1, conf.GetInt(api::conf::kReduceMaxAttempts, 4)));
  const int max_tracker_failures = static_cast<int>(
      std::max<int64_t>(1, conf.GetInt(api::conf::kMaxTrackerFailures, 4)));
  const bool speculative =
      conf.GetBool(api::conf::kSpeculativeExecution, false);
  const double slow_threshold =
      conf.GetDouble(api::conf::kSpeculativeSlowTaskThreshold, 1.5);

  // Per-job deterministic fault injection: installed on the file system
  // (dfs.read / dfs.write sites) and handed to tasks (hadoop.map /
  // hadoop.reduce sites). Cleared on every exit path.
  std::shared_ptr<FaultInjector> fault = FaultInjector::FromSites(
      api::knobs::Uint64(conf, api::conf::kFaultSeed),
      api::knobs::FaultSites(conf));
  // End-to-end integrity context (m3r.integrity.mode): installed on the
  // file system (block checksums) and handed to tasks (spill/fetch
  // checksums) for the duration of the submission, like the injector.
  std::shared_ptr<IntegrityContext> integrity = IntegrityContext::ForJob(
      static_cast<IntegrityMode>(
          api::knobs::Choice(conf, api::conf::kIntegrityMode)),
      fault);
  struct FaultGuard {
    dfs::FileSystem* fs;
    ~FaultGuard() {
      fs->SetFaultInjector(nullptr);
      fs->SetIntegrity(nullptr);
    }
  } fault_guard{fs_.get()};
  fs_->SetFaultInjector(fault);
  fs_->SetIntegrity(integrity);

  // --- Submit: jobtracker handshake, job files, splits (paper §3.1) ---
  auto output_format = api::MakeOutputFormat(conf);
  Status st = output_format->CheckOutputSpecs(conf, *fs_);
  if (!st.ok()) return Fail(std::move(st));
  api::FileOutputCommitter committer;
  st = committer.SetupJob(conf, *fs_);
  if (!st.ok()) return Fail(std::move(st));

  // Post-setup failures take the full-cleanup path: CheckOutputSpecs
  // guaranteed the output directory did not pre-exist, so everything under
  // it belongs to this job — abort the commit protocol, remove the partial
  // output (no _SUCCESS can survive), and fire the FAILED notification so
  // job-end listeners hear about mid-run failures. Leaving the directory
  // absent is what lets JobClient's job-level retry resubmit cleanly. A
  // failed job does not publish its clock: it reports no simulated time.
  auto fail_job = [&](Status status) {
    committer.AbortJob(conf, *fs_);
    fs_->Delete(conf.OutputPath(), /*recursive=*/true);
    metrics::SetIntegrity(&result, integrity.get());
    result.status = std::move(status);
    result.wall_seconds = wall.ElapsedSeconds();
    NotifyJobEnd(conf, result);
    return result;
  };

  std::string job_xml = SerializeConf(conf);
  std::string job_dir = "/system/mapred/job_" + std::to_string(job_id);
  st = fs_->WriteFile(job_dir + "/job.xml", job_xml);
  if (!st.ok()) return fail_job(std::move(st));

  clock.Charge(phase::kSubmit,
               spec.job_submit_overhead_s + cost_.DfsWrite(job_xml.size()));

  // Distributed cache localization: every node pulls the cache files once.
  auto cache_files = api::DistributedCache::GetCacheFiles(conf);
  if (!cache_files.empty()) {
    auto localized = api::DistributedCache::Localize(conf, *fs_);
    if (!localized.ok()) return fail_job(localized.status());
    uint64_t cache_bytes = 0;
    for (const auto& [p, content] : *localized) cache_bytes += content->size();
    // Nodes localize in parallel; charge one replicated read fan-out.
    clock.Charge(phase::kSubmit, cost_.DfsRead(cache_bytes, /*local=*/false));
    api::DistributedCache::InstallIntoConf(*localized, &conf);
    metrics::Set(&result, metric::kDistributedCacheBytes,
                 static_cast<int64_t>(cache_bytes) * spec.num_nodes);
  }

  auto input_format = api::MakeInputFormat(conf);
  auto splits_or = input_format->GetSplits(conf, *fs_, spec.total_slots());
  if (!splits_or.ok()) return fail_job(splits_or.status());
  std::vector<api::InputSplitPtr> splits = splits_or.take();

  // Split metadata is also written to the job directory.
  st = fs_->WriteFile(job_dir + "/job.split",
                      std::string(splits.size() * 64, 's'));
  if (!st.ok()) return fail_job(std::move(st));
  const double map_start = clock.now();

  // --- Map phase: execute for real, then account on the timeline ---
  // Hadoop's assignment of tasks to hosts is dynamic: model output
  // placement as an arbitrary (but deterministic) host per task, which is
  // why data written by Hadoop generally does NOT line up with M3R's
  // stable partition->place mapping (paper §6.1.1).
  auto arbitrary_node = [&](int task, int attempt) {
    uint64_t h = static_cast<uint64_t>(job_id) * 2654435761u +
                 static_cast<uint64_t>(task) * 40503u +
                 static_cast<uint64_t>(attempt) * 104729u + 17;
    return static_cast<int>(h % static_cast<uint64_t>(spec.num_nodes));
  };

  ReportProgress(0.05, &result.counters);
  // Every attempt executes for real; a failed one (injected fault, or user
  // code surfacing a retriable status) re-runs under a fresh attempt
  // number up to mapred.map.max.attempts. Keyed fault decisions make each
  // task's retry history deterministic regardless of thread interleaving.
  std::vector<std::vector<MapTaskResult>> map_attempts(splits.size());
  std::atomic<size_t> maps_done{0};
  std::atomic<bool> cancelled{false};
  ParallelFor(
      splits.size(),
      [&](size_t i) {
        if (CancelRequested()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        std::vector<MapTaskResult>& attempts = map_attempts[i];
        for (int a = 0; a < map_max_attempts; ++a) {
          attempts.push_back(RunHadoopMapTask(
              conf, *fs_, *splits[i], static_cast<int>(i), num_reduce,
              arbitrary_node(static_cast<int>(i), a), a, fault.get(),
              integrity.get()));
          if (attempts.back().status.ok()) break;
          committer.AbortTask(conf, *fs_, static_cast<int>(i), a);
          if (!attempts.back().status.IsRetriable()) break;
        }
        size_t done = ++maps_done;
        // Asynchronous progress/counter update per completed task (§5.3).
        ReportProgress(0.05 + 0.55 * static_cast<double>(done) /
                                  static_cast<double>(splits.size()),
                       &result.counters);
      },
      options_.host_threads);
  if (cancelled.load(std::memory_order_relaxed) || CancelRequested()) {
    return fail_job(Status::Cancelled("job cancelled"));
  }
  for (auto& attempts : map_attempts) {
    if (!attempts.back().status.ok()) {
      return fail_job(attempts.back().status);
    }
    // Only the successful attempt's counters count, so a recovered run's
    // counters match a fault-free run exactly.
    result.counters.MergeFrom(attempts.back().counters);
  }

  // Sim accounting. Failed attempts are charged too: a retry only becomes
  // ready once the jobtracker has seen its predecessor fail, which is what
  // stretches the simulated makespan under injected faults. Nodes
  // accumulate failures and are blacklisted (excluded from placement) once
  // they reach mapred.max.tracker.failures; a retried task also avoids the
  // nodes its earlier attempts failed on.
  PhaseScheduler map_phase(spec, map_start);
  std::vector<int> map_nodes(splits.size(), 0);
  std::vector<int> node_failures(static_cast<size_t>(spec.num_nodes), 0);
  std::vector<int> blacklisted;
  std::vector<double> map_finishes(splits.size(), map_start);
  std::vector<double> map_first_starts(splits.size(), map_start);
  std::vector<double> map_durations(splits.size(), 0);
  int64_t local_maps = 0;
  int64_t map_task_failures = 0;
  sim::CpuWork sort_work;
  auto map_duration_fn = [&](const MapTaskResult* mr) {
    return [&, mr](bool is_local, int) {
      double d = spec.task_jvm_start_s;
      d += cost_.DfsRead(mr->input_bytes, is_local);
      // The spill sorts are charged to the job-wide sort phase instead.
      d += cost_.Cpu(mr->work);
      d += cost_.DiskWrite(mr->spill_write_bytes);
      if (mr->merge_bytes > 0) {
        d += cost_.DiskRead(mr->merge_bytes) +
             cost_.DiskWrite(mr->merge_bytes);
      }
      if (num_reduce == 0) d += cost_.DfsWrite(mr->output_bytes);
      return d;
    };
  };
  for (size_t i = 0; i < splits.size(); ++i) {
    const std::vector<MapTaskResult>& attempts = map_attempts[i];
    double ready = -1;
    std::vector<int> failed_on;
    for (size_t a = 0; a < attempts.size(); ++a) {
      const MapTaskResult& mr = attempts[a];
      sort_work += mr.sort;
      std::vector<int> avoid = blacklisted;
      avoid.insert(avoid.end(), failed_on.begin(), failed_on.end());
      bool local = false;
      sim::ScheduledTask sched =
          map_phase.Add(map_duration_fn(&mr), splits[i]->GetLocations(),
                        &local, ready, avoid);
      if (a == 0) map_first_starts[i] = sched.start_s;
      if (!mr.status.ok()) {
        ++map_task_failures;
        failed_on.push_back(sched.node);
        if (++node_failures[static_cast<size_t>(sched.node)] ==
            max_tracker_failures) {
          blacklisted.push_back(sched.node);
        }
        ready = sched.finish_s;
        continue;
      }
      map_nodes[i] = sched.node;
      if (local) ++local_maps;
      map_finishes[i] = sched.finish_s;
      map_durations[i] = sched.finish_s - sched.start_s;
    }

    const MapTaskResult& mr = attempts.back();
    metrics::Add(&result, metric::kHdfsReadBytes,
                 static_cast<int64_t>(mr.input_bytes));
    metrics::Add(&result, metric::kSpillWriteBytes,
                 static_cast<int64_t>(mr.spill_write_bytes));
    metrics::Add(&result, metric::kMapMergeBytes,
                 static_cast<int64_t>(mr.merge_bytes));
    // FILE_BYTES_WRITTEN sums two metrics (spill and merge), so it is no
    // row's mirror.
    result.counters.Increment(
        api::counters::kFsGroup, api::counters::kFileBytesWritten,
        static_cast<int64_t>(mr.spill_write_bytes + mr.merge_bytes));
  }

  // Speculative execution: a task still running well past the mean
  // attempt duration since its own first attempt started (typically a
  // retry chain; time queued for a slot does not count) gets a backup copy
  // launched once the lag is evident. Backups are booked after every
  // task's own attempts, as a jobtracker serves pending tasks first, so
  // they never delay one; as in LATE, the task that would finish last
  // gets the first free slot. The task finishes when the first copy does.
  int64_t speculative_maps = 0;
  int64_t speculative_map_wins = 0;
  if (speculative && splits.size() > 1) {
    double mean = 0;
    for (double d : map_durations) mean += d;
    mean /= static_cast<double>(splits.size());
    for (size_t i : LatestFirst(map_finishes)) {
      const double launch = map_first_starts[i] + slow_threshold * mean;
      if (map_finishes[i] <= launch) continue;
      const MapTaskResult& mr = map_attempts[i].back();
      sim::ScheduledTask backup =
          map_phase.Add(map_duration_fn(&mr), splits[i]->GetLocations(),
                        nullptr, launch, blacklisted);
      ++speculative_maps;
      if (backup.finish_s < map_finishes[i]) {
        map_finishes[i] = backup.finish_s;
        map_nodes[i] = backup.node;
        ++speculative_map_wins;
      }
    }
  }

  metrics::Set(&result, metric::kMapTasks, static_cast<int64_t>(splits.size()));
  metrics::Set(&result, metric::kDataLocalMaps, local_maps);
  double map_done = map_start;
  for (double f : map_finishes) map_done = std::max(map_done, f);
  clock.AdvanceTo(phase::kMapPhase, map_done);

  int64_t reduce_task_failures = 0;
  int64_t speculative_reduces = 0;
  int64_t speculative_reduce_wins = 0;

  // --- Reduce phase ---
  if (num_reduce > 0) {
    if (CancelRequested()) return fail_job(Status::Cancelled("job cancelled"));
    std::vector<std::vector<const std::string*>> reduce_inputs(
        static_cast<size_t>(num_reduce));
    std::vector<std::vector<uint32_t>> reduce_input_crcs(
        static_cast<size_t>(num_reduce));
    for (int p = 0; p < num_reduce; ++p) {
      for (const std::vector<MapTaskResult>& attempts : map_attempts) {
        const MapTaskResult& mr = attempts.back();
        reduce_inputs[static_cast<size_t>(p)].push_back(
            &mr.partition_segments[static_cast<size_t>(p)]);
        reduce_input_crcs[static_cast<size_t>(p)].push_back(
            mr.segment_crcs.empty()
                ? 0
                : mr.segment_crcs[static_cast<size_t>(p)]);
      }
    }
    std::vector<std::vector<ReduceTaskResult>> reduce_attempts(
        static_cast<size_t>(num_reduce));
    std::atomic<size_t> reduces_done{0};
    ParallelFor(
        static_cast<size_t>(num_reduce),
        [&](size_t p) {
          if (CancelRequested()) {
            cancelled.store(true, std::memory_order_relaxed);
            return;
          }
          std::vector<ReduceTaskResult>& attempts = reduce_attempts[p];
          for (int a = 0; a < reduce_max_attempts; ++a) {
            attempts.push_back(RunHadoopReduceTask(
                conf, *fs_, static_cast<int>(p), reduce_inputs[p],
                arbitrary_node(1000000 + static_cast<int>(p), a), a,
                fault.get(), reduce_input_crcs[p], integrity.get()));
            if (attempts.back().status.ok()) break;
            committer.AbortTask(conf, *fs_, static_cast<int>(p), a);
            if (!attempts.back().status.IsRetriable()) break;
          }
          size_t done = ++reduces_done;
          ReportProgress(0.6 + 0.35 * static_cast<double>(done) /
                                   static_cast<double>(num_reduce),
                         &result.counters);
        },
        options_.host_threads);
    if (cancelled.load(std::memory_order_relaxed) || CancelRequested()) {
      return fail_job(Status::Cancelled("job cancelled"));
    }
    for (auto& attempts : reduce_attempts) {
      if (!attempts.back().status.ok()) {
        return fail_job(attempts.back().status);
      }
      result.counters.MergeFrom(attempts.back().counters);
    }

    PhaseScheduler reduce_phase(spec, map_done);
    std::vector<double> reduce_finishes(static_cast<size_t>(num_reduce),
                                        map_done);
    std::vector<double> reduce_durations(static_cast<size_t>(num_reduce), 0);
    std::vector<double> reduce_first_starts(static_cast<size_t>(num_reduce),
                                            map_done);
    auto reduce_duration_fn = [&](const ReduceTaskResult* rr, int p) {
      return [&, rr, p](bool, int node) {
        double d = spec.task_jvm_start_s;
        // Fetch each map task's segment: disk read at the mapper plus a
        // network hop unless the map ran on this reducer's node.
        for (size_t m = 0; m < map_attempts.size(); ++m) {
          uint64_t bytes =
              reduce_inputs[static_cast<size_t>(p)][m]->size();
          if (bytes == 0) continue;
          d += cost_.DiskRead(bytes);
          if (map_nodes[m] != node) d += cost_.NetTransfer(bytes);
        }
        // Out-of-core merge: one write+read pass over the merged bytes.
        d += cost_.DiskWrite(rr->merge_bytes) +
             cost_.DiskRead(rr->merge_bytes);
        d += cost_.Cpu(rr->work);
        d += cost_.DfsWrite(rr->output_bytes);
        return d;
      };
    };
    for (int p = 0; p < num_reduce; ++p) {
      const std::vector<ReduceTaskResult>& attempts =
          reduce_attempts[static_cast<size_t>(p)];
      double ready = -1;
      std::vector<int> failed_on;
      for (size_t a = 0; a < attempts.size(); ++a) {
        const ReduceTaskResult& rr = attempts[a];
        std::vector<int> avoid = blacklisted;
        avoid.insert(avoid.end(), failed_on.begin(), failed_on.end());
        sim::ScheduledTask sched =
            reduce_phase.Add(reduce_duration_fn(&rr, p), {}, nullptr, ready,
                             avoid);
        if (a == 0) reduce_first_starts[static_cast<size_t>(p)] = sched.start_s;
        if (!rr.status.ok()) {
          ++reduce_task_failures;
          failed_on.push_back(sched.node);
          if (++node_failures[static_cast<size_t>(sched.node)] ==
              max_tracker_failures) {
            blacklisted.push_back(sched.node);
          }
          ready = sched.finish_s;
          continue;
        }
        reduce_finishes[static_cast<size_t>(p)] = sched.finish_s;
        reduce_durations[static_cast<size_t>(p)] =
            sched.finish_s - sched.start_s;
      }

      const ReduceTaskResult& rr = attempts.back();
      metrics::Add(&result, metric::kShuffleBytes,
                   static_cast<int64_t>(rr.shuffle_bytes));
      metrics::Add(&result, metric::kReduceMergeBytes,
                   static_cast<int64_t>(rr.merge_bytes));
      metrics::Add(&result, metric::kHdfsWriteBytes,
                   static_cast<int64_t>(rr.output_bytes));
    }

    if (speculative && num_reduce > 1) {
      double mean = 0;
      for (double d : reduce_durations) mean += d;
      mean /= static_cast<double>(num_reduce);
      for (size_t p : LatestFirst(reduce_finishes)) {
        double& finish = reduce_finishes[p];
        const double launch = reduce_first_starts[p] + slow_threshold * mean;
        if (finish <= launch) continue;
        const ReduceTaskResult& rr = reduce_attempts[p].back();
        sim::ScheduledTask backup =
            reduce_phase.Add(reduce_duration_fn(&rr, static_cast<int>(p)), {},
                             nullptr, launch, blacklisted);
        ++speculative_reduces;
        if (backup.finish_s < finish) {
          finish = backup.finish_s;
          ++speculative_reduce_wins;
        }
      }
    }

    double reduce_done = map_done;
    for (double f : reduce_finishes) reduce_done = std::max(reduce_done, f);
    clock.AdvanceTo(phase::kReducePhase, reduce_done);
    metrics::Set(&result, metric::kReduceTasks, num_reduce);
  } else {
    for (const std::vector<MapTaskResult>& attempts : map_attempts) {
      const MapTaskResult& mr = attempts.back();
      metrics::Add(&result, metric::kHdfsWriteBytes,
                   static_cast<int64_t>(mr.output_bytes));
    }
  }

  metrics::Set(&result, metric::kMapTaskFailures, map_task_failures);
  metrics::Set(&result, metric::kReduceTaskFailures, reduce_task_failures);
  metrics::Set(&result, metric::kBlacklistedNodes,
               static_cast<int64_t>(blacklisted.size()));
  if (speculative) {
    metrics::Set(&result, metric::kSpeculativeMapTasks, speculative_maps);
    metrics::Set(&result, metric::kSpeculativeReduceTasks,
                 speculative_reduces);
    metrics::Set(&result, metric::kSpeculativeMapWins, speculative_map_wins);
    metrics::Set(&result, metric::kSpeculativeReduceWins,
                 speculative_reduce_wins);
  }
  if (fault != nullptr) {
    metrics::Set(&result, metric::kInjectedFaults, fault->InjectedCount());
  }
  // Integrity layer: surface the tallies and charge the checksum CPU. The
  // checksum and sort-kernel work happened inside tasks spread across
  // every slot, so the makespan pays the per-slot share of each.
  metrics::SetIntegrity(&result, integrity.get());
  if (integrity != nullptr && integrity->enabled()) {
    clock.Charge(phase::kIntegrity,
                 cost_.SpreadOverSlots(cost_.Checksum(static_cast<uint64_t>(
                     integrity->counters->bytes_checksummed.load()))));
  }
  if (const double charge = cost_.Cpu(sort_work); charge > 0) {
    clock.Charge(phase::kSort, cost_.SpreadOverSlots(charge));
  }

  // --- Commit ---
  if (CancelRequested()) return fail_job(Status::Cancelled("job cancelled"));
  st = committer.CommitJob(conf, *fs_);
  if (!st.ok()) return fail_job(std::move(st));
  clock.Charge(phase::kCommit, spec.job_commit_overhead_s);

  clock.Publish(&result);
  result.wall_seconds = wall.ElapsedSeconds();
  result.status = Status::OK();
  ReportProgress(1.0, &result.counters);
  NotifyJobEnd(conf, result);
  return result;
}

}  // namespace m3r::hadoop

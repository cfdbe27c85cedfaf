// Serving-front-end trace bench (DESIGN.md §12): the same three-tenant
// submission trace replayed against a single-queue FIFO server and
// against the weighted fair-share scheduler with priority preemption,
// recording per-tenant p50/p99 queued-wait and completion latency,
// per-queue throughput, and the preemption count. Uses the Hadoop engine
// so every job costs the same (no cache effects) and the difference
// between the modes is purely scheduling.
//
// Each (mode, tenant) pair is one JSON record
//   {bench, config, wall_seconds, sim_seconds, wire_bytes, counters}
// in BENCH_sched.json; counters carry the latency percentiles in
// milliseconds. CI runs it as a smoke (valid JSON, every job succeeds,
// fair mode must not worsen the interactive tenant's p99 wait); the
// committed file records how the numbers move PR over PR.
//
//   bench_sched [--out-dir DIR] [--suffix S]
//
// writes DIR/BENCH_sched<S>.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/submission.h"
#include "bench_util.h"
#include "common/fairshare.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/server.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

using bench::Record;

/// One submission of the replayed trace.
struct TraceJob {
  std::string tenant;
  int priority = 0;
};

/// The trace: two flooding tenants (etl carries twice batch's weight in
/// fair mode) submitted up front, then a burst of interactive jobs that
/// arrives once the backlog is being worked — the tenant a FIFO server
/// makes wait for everyone else, and the one whose arrival preempts a
/// running flood job in fair mode.
std::vector<TraceJob> MakeFlood() {
  std::vector<TraceJob> trace;
  for (int i = 0; i < 6; ++i) {
    trace.push_back({"batch", 0});
    trace.push_back({"etl", 0});
  }
  return trace;
}

std::vector<TraceJob> MakeBurst() {
  return std::vector<TraceJob>(4, TraceJob{"interactive", 10});
}

struct TenantTally {
  LatencyRecorder wait;
  LatencyRecorder done;
  double sim_seconds = 0;
  int jobs = 0;
};

struct ModeResult {
  std::map<std::string, TenantTally> tenants;
  double elapsed_seconds = 0;
  int64_t preemptions = 0;
  int64_t completed = 0;
};

/// Replays the trace against a fresh engine+server. In "fifo" mode every
/// job lands in one queue with priorities flattened and preemption off —
/// the pre-scheduler server's behavior. In "fair" mode each tenant gets
/// its own weighted queue and interactive jobs keep their priority.
ModeResult RunMode(bool fair) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 96 * 1024, 2, 5));
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;

  engine::JobServer::Options options;
  options.max_inflight = 1;
  options.queue_depth = 64;
  options.preemption = fair;
  if (fair) {
    options.queue_weights = {
        {"batch", 1.0}, {"etl", 2.0}, {"interactive", 1.0}};
  }
  engine::JobServer server(
      std::make_shared<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0}),
      options);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, api::JobTicket>> tickets;
  int seq = 0;
  auto submit = [&](const TraceJob& job) {
    api::Submission sub;
    sub.tenant = job.tenant;
    sub.queue = fair ? job.tenant : "default";
    sub.priority = fair ? job.priority : 0;
    sub.conf = workloads::MakeWordCountJob(
        "/in", "/out-" + std::to_string(seq++), 2, true);
    auto ticket = server.Submit(std::move(sub));
    M3R_CHECK(ticket.ok()) << ticket.status().ToString();
    tickets.emplace_back(job.tenant, *ticket);
  };
  for (const TraceJob& job : MakeFlood()) submit(job);
  // The burst arrives mid-backlog: wait until a couple of flood jobs have
  // completed so a flood job is actually running when the high-priority
  // work shows up (in fair mode its arrival preempts that job).
  for (;;) {
    int64_t done = 0, running = 0;
    for (const auto& q : server.Stats()) {
      done += q.completed;
      running += q.running;
    }
    if (done >= 2 && running >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const TraceJob& job : MakeBurst()) submit(job);

  ModeResult result;
  for (auto& [tenant, ticket] : tickets) {
    api::JobResult r = ticket.Wait();
    M3R_CHECK(r.ok()) << r.status.ToString();
    api::TicketInfo info = ticket.Poll();
    TenantTally& tally = result.tenants[tenant];
    tally.wait.Add(info.wait_seconds);
    tally.done.Add(info.wait_seconds + info.run_seconds);
    tally.sim_seconds += r.sim_seconds;
    tally.jobs++;
  }
  result.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  for (const auto& q : server.Stats()) {
    result.preemptions += q.preempted;
    result.completed += q.completed;
  }
  server.Shutdown();
  return result;
}

int Ms(double seconds) { return static_cast<int>(seconds * 1000); }

}  // namespace
}  // namespace m3r

int main(int argc, char** argv) {
  using namespace m3r;
  std::string out_dir = ".";
  std::string suffix;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out-dir" && i + 1 < argc) out_dir = argv[++i];
    if (arg == "--suffix" && i + 1 < argc) suffix = argv[++i];
  }

  std::vector<Record> records;
  bench::Banner("sched: FIFO vs weighted fair-share + preemption");
  std::printf("%-6s %-12s %5s %12s %12s %12s %12s\n", "mode", "tenant",
              "jobs", "p50_wait_ms", "p99_wait_ms", "p50_done_ms",
              "p99_done_ms");

  std::map<std::string, ModeResult> modes;
  for (bool fair : {false, true}) {
    const std::string mode = fair ? "fair" : "fifo";
    ModeResult result = RunMode(fair);
    for (auto& [tenant, tally] : result.tenants) {
      std::printf("%-6s %-12s %5d %12d %12d %12d %12d\n", mode.c_str(),
                  tenant.c_str(), tally.jobs, Ms(tally.wait.Percentile(50)),
                  Ms(tally.wait.Percentile(99)), Ms(tally.done.Percentile(50)),
                  Ms(tally.done.Percentile(99)));
      Record rec;
      rec.bench = "sched";
      rec.config = mode + "/" + tenant;
      rec.wall_seconds = result.elapsed_seconds;
      rec.sim_seconds = tally.sim_seconds;
      rec.counters = {
          {"jobs", tally.jobs},
          {"p50_wait_ms", Ms(tally.wait.Percentile(50))},
          {"p99_wait_ms", Ms(tally.wait.Percentile(99))},
          {"p50_done_ms", Ms(tally.done.Percentile(50))},
          {"p99_done_ms", Ms(tally.done.Percentile(99))},
          {"mean_wait_ms", Ms(tally.wait.Mean())},
      };
      records.push_back(std::move(rec));
    }
    Record summary;
    summary.bench = "sched";
    summary.config = mode + "/all";
    summary.wall_seconds = result.elapsed_seconds;
    summary.counters = {
        {"completed", result.completed},
        {"preemptions", result.preemptions},
        {"throughput_jobs_per_sec_milli",
         result.elapsed_seconds > 0
             ? static_cast<int64_t>(1000.0 * result.completed /
                                    result.elapsed_seconds)
             : 0},
    };
    records.push_back(std::move(summary));
    modes[mode] = std::move(result);
  }

  // Validity: the whole point of the fair scheduler is that the
  // interactive tenant stops paying for the floods. Its p99 queued wait
  // must not regress relative to FIFO on the identical trace.
  double fifo_p99 = modes["fifo"].tenants["interactive"].wait.Percentile(99);
  double fair_p99 = modes["fair"].tenants["interactive"].wait.Percentile(99);
  std::printf("\ninteractive p99 wait: fifo=%.0fms fair=%.0fms  "
              "preemptions(fair)=%lld\n",
              1000 * fifo_p99, 1000 * fair_p99,
              (long long)modes["fair"].preemptions);
  M3R_CHECK(fair_p99 <= fifo_p99)
      << "fair-share made the interactive tenant wait LONGER than FIFO ("
      << fair_p99 << "s vs " << fifo_p99 << "s)";

  std::string path = out_dir + "/BENCH_sched" + suffix + ".json";
  std::ofstream out(path);
  out << bench::ToJson(records);
  out.close();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// M3R benchmark binary: runs one workload's job sequence on a fresh engine
// per rep, for at least --seconds, and prints one JSON result line.
//
//   m3r_perfbench --workload wordcount|spmv_budget|shuffle_spill --seed N
//                 --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics (medians over reps, tracing
// off). --trace 1 alternates untraced and traced reps and reports the
// per-layer metrics; with --trace-dir it also writes the last traced rep's
// spans as Chrome trace-event JSON. The line before the result is the full
// configuration, every m3r.* knob included.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracing.h"
#include "workloads.h"

namespace m3r::perfbench {
namespace {

/// Host threads backing the 20 logical places. Pinned rather than derived
/// from the host so every run executes the same schedule shape; capped at
/// the CPUs this process may use. One executor thread plus the submitting
/// thread, which joins every parallel loop: on a shared VM each extra busy
/// thread is one more straggler a stolen vCPU can stall, and a second
/// executor thread bought no median wall time here while widening the
/// run-to-run spread several-fold.
constexpr int kHostThreads = 1;
/// Reps per --trace 0 run, at least, whatever --seconds says.
constexpr size_t kMinReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Starts a fresh peak-RSS window: returns freed heap to the system and
/// resets the kernel's high-water mark, so each rep's peak is its own and
/// not the maximum over every rep before it.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last ResetPeakRss, in MiB.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Get(const std::map<std::string, double>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One metric of the result line.
struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// Counts that must repeat exactly between a traced and an untraced rep:
/// the proof that tracing measured the same program.
constexpr const char* kExactCounts[] = {"map.output_records",
                                        "shuffle.wire_mb", "pairs.cloned",
                                        "pairs.aliased"};

/// Per-layer metrics of one (untraced, traced) pair: JobResult sums from
/// the untraced rep, span totals from the traced one.
std::vector<Metric> LayerMetrics(const RepStats& plain,
                                 const RepStats& traced) {
  const auto& s = plain.sums;
  const LayerTotals& t = traced.layers;
  constexpr double kMiB = 1024.0 * 1024.0;
  auto sec = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  auto cnt = [](int64_t n) { return static_cast<double>(n); };
  return {
      {"dfs.calls", cnt(t.dfs_calls), "count"},
      {"dfs.busy_s", sec(t.dfs_busy_ns), "s"},
      {"dfs.read_mb", static_cast<double>(t.dfs_read_bytes) / kMiB, "MiB"},
      {"dfs.write_mb", static_cast<double>(t.dfs_write_bytes) / kMiB, "MiB"},
      {"user.map_calls", cnt(t.map_calls), "count"},
      {"user.map_self_s", sec(t.map_busy_ns - t.emit_busy_ns), "s"},
      {"user.reduce_calls", cnt(t.reduce_calls), "count"},
      {"user.reduce_self_s", sec(t.reduce_busy_ns - t.reduce_child_ns), "s"},
      {"emit.calls", cnt(t.emit_calls), "count"},
      {"emit.busy_s", sec(t.emit_busy_ns), "s"},
      {"job.submit_s", sec(t.submit_ns), "s"},
      {"engine.self_s", sec(t.engine_self_ns), "s"},
      {"trace.overhead_s", traced.wall_s - plain.wall_s, "s"},
      {"sim.map_phase_s", Get(s, "sim.map_phase_s"), "s"},
      {"sim.shuffle_s", Get(s, "sim.shuffle_s"), "s"},
      {"sim.sort_s", Get(s, "sim.sort_s"), "s"},
      {"sim.reduce_phase_s", Get(s, "sim.reduce_phase_s"), "s"},
      {"sim.job_overhead_s", Get(s, "sim.job_overhead_s"), "s"},
      {"shuffle.wire_mb", Get(s, "shuffle.wire_mb"), "MiB"},
      {"shuffle.remote_pairs", Get(s, "shuffle.remote_pairs"), "count"},
      {"shuffle.local_pairs", Get(s, "shuffle.local_pairs"), "count"},
      {"shuffle.runs_shipped", Get(s, "shuffle.runs_shipped"), "count"},
      {"shuffle.overflow_spills", Get(s, "shuffle.overflow_spills"), "count"},
      {"shuffle.pool_peak_mb", Get(s, "shuffle.pool_peak_mb"), "MiB"},
      {"shuffle.first_reduce_ms",
       Ratio(Get(s, "shuffle.first_reduce_ms"), plain.attempted, 0), "ms"},
      {"dedup.saved_mb", Get(s, "dedup.saved_mb"), "MiB"},
      {"pairs.cloned", Get(s, "pairs.cloned"), "count"},
      {"pairs.aliased", Get(s, "pairs.aliased"), "count"},
      {"combine.ratio",
       Ratio(Get(s, "combine.output_records"), Get(s, "combine.input_records"),
             1.0),
       "ratio"},
      {"map.output_records", Get(s, "map.output_records"), "count"},
      {"cache.hit_ratio",
       Ratio(Get(s, "cache.hit_splits"),
             Get(s, "cache.hit_splits") + Get(s, "cache.miss_splits"), 0),
       "ratio"},
      {"cache.evictions", Get(s, "cache.evictions"), "count"},
      {"cache.spilled_evictions", Get(s, "cache.spilled_evictions"), "count"},
      {"cache.rejected_fills", Get(s, "cache.rejected_fills"), "count"},
      {"memory.peak_mb", Get(s, "memory.peak_mb"), "MiB"},
      {"l2.hit_ratio",
       Ratio(Get(s, "l2.hits"), Get(s, "l2.hits") + Get(s, "l2.misses"), 0),
       "ratio"},
      {"l2.demotions", Get(s, "l2.demotions"), "count"},
      {"l2.remote_mb", Get(s, "l2.remote_mb"), "MiB"},
      {"l2.overflow_fills", Get(s, "l2.overflow_fills"), "count"},
  };
}

std::string ConfigJson(const Args& args, int host_threads,
                       const Workload& workload,
                       const std::map<std::string, std::string>& knobs,
                       size_t reps) {
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + Num(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"reps\": " + std::to_string(reps) +
                    ", \"nproc\": " + std::to_string(CpuCount()) +
                    ", \"host_threads\": " +
                    std::to_string(host_threads) +
                    ", \"workers_per_place\": " +
                    std::to_string(kWorkersPerPlace) +
                    ", \"cluster\": {\"nodes\": 20, \"slots_per_node\": 8, "
                    "\"data_scale\": 256}, \"dfs\": {\"block_bytes\": 65536, "
                    "\"replication\": 3}, \"params\": {" +
                    workload.DescribeJson() + "}, \"knobs\": {";
  bool first = true;
  for (const auto& [key, value] : knobs) {
    out += (first ? "\"" : ", \"") + key + "\": \"" + value + "\"";
    first = false;
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const int host_threads = std::min(kHostThreads, CpuCount());
  std::map<std::string, std::string> knobs;

  // One rep: fresh DFS, inputs and engine (timed as set-up), then the job
  // sequence. The engine is destroyed before the tracer so no background
  // thread can reach a dead tracer.
  auto run_rep = [&](bool traced) {
    RepStats stats;
    ResetPeakRss();
    const int64_t t0 = NowNs();
    std::shared_ptr<dfs::FileSystem> base = MakeBaseDfs();
    workload->Generate(*base);
    std::shared_ptr<dfs::FileSystem> fs =
        traced ? MakeTracingFileSystem(base) : base;
    auto engine =
        std::make_unique<engine::M3REngine>(fs, EngineOptions(host_threads));
    stats.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
    workload->PrepareOracle(*base);

    std::unique_ptr<Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<Tracer>();
      tracer->BeginWorkload(args.workload);
    }
    JobRunner runner(*engine, &stats, tracer.get());
    workload->Run(runner, *base);
    knobs.insert(runner.knobs().begin(), runner.knobs().end());
    if (traced) {
      stats.layers.Add(tracer->EndWorkload());
      if (!args.trace_dir.empty()) {
        const std::string path = args.trace_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
        if (!tracer->WriteChromeTrace(
                path, ConfigJson(args, host_threads, *workload, knobs, 1))) {
          std::fprintf(stderr, "could not write %s\n", path.c_str());
        }
      }
    }
    engine.reset();
    tracer.reset();
    stats.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "rep traced=%d setup_s=%.4f wall_s=%.4f sim_s=%.4f "
                 "cpu_s=%.4f peak_rss_mb=%.1f failed=%d/%d\n",
                 traced ? 1 : 0, stats.setup_s, stats.wall_s, stats.sim_s,
                 stats.cpu_s, stats.peak_rss_mb, stats.failed,
                 stats.attempted);
    return stats;
  };

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int attempted = 0;
  int failed = 0;
  bool exact = true;
  size_t reps = 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> wall, sim, cpu, rss, setup;
    while (reps < kMinReps || NowNs() < deadline) {
      RepStats rep = run_rep(false);
      wall.push_back(rep.wall_s);
      sim.push_back(rep.sim_s);
      cpu.push_back(rep.cpu_s);
      rss.push_back(rep.peak_rss_mb);
      setup.push_back(rep.setup_s);
      attempted += rep.attempted;
      failed += rep.failed;
      ++reps;
    }
    metrics = {{"wall_s", Median(wall), "s"},
               {"sim_s", Median(sim), "s"},
               {"cpu_s", Median(cpu), "s"},
               {"peak_rss_mb", Median(rss), "MiB"},
               {"setup_s", Median(setup), "s"}};
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<Metric> last;
    while (reps == 0 || NowNs() < deadline) {
      RepStats plain = run_rep(false);
      RepStats traced = run_rep(true);
      for (const char* key : kExactCounts) {
        if (Get(plain.sums, key) != Get(traced.sums, key)) {
          exact = false;
          std::fprintf(stderr, "%s differs: untraced %.17g traced %.17g\n",
                       key, Get(plain.sums, key), Get(traced.sums, key));
        }
      }
      attempted += plain.attempted + traced.attempted;
      failed += plain.failed + traced.failed;
      last = LayerMetrics(plain, traced);
      for (const Metric& m : last) samples[m.name].push_back(m.value);
      reps += 2;
    }
    for (const Metric& m : last) {
      metrics.push_back({m.name, Median(samples[m.name]), m.unit});
    }
    metrics.push_back({"fail_ratio", Ratio(failed, attempted, 0), "ratio"});
  }

  std::printf("config %s\n",
              ConfigJson(args, host_threads, *workload, knobs, reps).c_str());
  std::string line = "{\"correct\": ";
  line += failed == 0 && exact ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += std::string(i ? ", " : "") + "\"" + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace m3r::perfbench

int main(int argc, char** argv) { return m3r::perfbench::Main(argc, argv); }

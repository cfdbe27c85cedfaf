// The paper's evaluation (PAPER.md §6) as one table of rows: each names a
// section, its arms, the workload that measures them, a scale, and the
// shape claims its table must bear out on the counted sim ledger.
//   m3r_experiments --scale smoke|paper [--out-dir DIR] [--suffix S]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string_view>
#include <sstream>
#include <thread>

#include "api/counters.h"
#include "api/phases.h"
#include "api/sequence_file.h"
#include "common/rng.h"
#include "common/sort.h"
#include "experiments.h"
#include "m3r/repartition.h"
#include "serialize/comparators.h"
#include "sysml/algorithms.h"
#include "workloads/matrix_gen.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::bench {
namespace {

using FsPtr = std::shared_ptr<dfs::FileSystem>;
using Knob = std::pair<std::string, std::string>;

double WallSeconds(const std::function<void()>& body) {
  auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::unique_ptr<api::Engine> MakeEngine(
    const Arm& arm, const FsPtr& fs,
    const sim::ClusterSpec& spec = bench::PaperCluster()) {
  if (!arm.m3r) {
    return std::make_unique<hadoop::HadoopEngine>(
        fs, hadoop::HadoopEngineOptions{spec, 0});
  }
  engine::M3REngineOptions opts{spec};
  // One worker strand per place: lane tables, wire streams and so sim
  // follow the strand count, and the auto default follows the host's cores.
  opts.workers_per_place = 1;
  opts.enable_cache = arm.enable_cache;
  opts.partition_stability = arm.partition_stability;
  opts.respect_immutable = arm.respect_immutable;
  opts.dedup_mode = arm.dedup;
  return std::make_unique<engine::M3REngine>(fs, opts);
}

/// The file system jobs see: M3R's cache-intercepting view, or the DFS.
FsPtr ViewOf(api::Engine& engine, const FsPtr& fs) {
  auto* m3r = dynamic_cast<engine::M3REngine*>(&engine);
  return m3r != nullptr ? m3r->Fs() : fs;
}

/// Submits `job` with the arm's knobs; any failure aborts the driver.
api::JobResult Run(api::Engine& engine, const Arm& arm, api::JobConf job) {
  for (const auto& [key, value] : arm.knobs) job.Set(key, value);
  api::JobResult result = engine.Submit(job);
  M3R_CHECK(result.ok()) << arm.name << ": " << result.status.ToString();
  return result;
}

double Metric(const api::JobResult& r, const char* name) {
  auto it = r.metrics.find(name);
  return it == r.metrics.end() ? 0 : static_cast<double>(it->second);
}

/// A trajectory record: sim, wire bytes, the task record counters the
/// job used, then the repair count and the pipelined-shuffle metrics when
/// the run has them.
Record Trajectory(const std::string& bench, const std::string& config,
                  double wall, const api::JobResult& r) {
  Record rec{bench, config, wall, r.sim_seconds,
             static_cast<int64_t>(Metric(r, "shuffle_wire_bytes")), {}};
  for (const auto& [name, counter] :
       {std::pair{"map_output_records", api::counters::kMapOutputRecords},
        {"combine_input_records", api::counters::kCombineInputRecords},
        {"combine_output_records", api::counters::kCombineOutputRecords},
        {"reduce_output_records", api::counters::kReduceOutputRecords}}) {
    const int64_t n = r.counters.Get(api::counters::kTaskGroup, counter);
    if (n != 0) rec.counters.emplace_back(name, n);
  }
  for (const char* name :
       {"integrity_repaired", "time_to_first_reduce_ms",
        "shuffle_runs_shipped", "shuffle_overflow_spills",
        "shuffle_pool_peak_bytes", "shuffle_max_partition_run_bytes"}) {
    if (r.metrics.count(name)) {
      rec.counters.emplace_back(name, r.metrics.at(name));
    }
  }
  return rec;
}

/// Sorted rows of every part file under `dir`, decoded as SequenceFile
/// records or split as text lines: sequence files carry per-writer sync
/// markers, so byte comparison goes through the records.
std::vector<std::string> SortedOutput(dfs::FileSystem& fs,
                                      const std::string& dir,
                                      bool sequence_files) {
  std::vector<std::string> rows;
  auto files = fs.ListStatus(dir);
  M3R_CHECK(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory || f.path.find("part-") == std::string::npos) {
      continue;
    }
    if (sequence_files) {
      auto pairs = api::ReadSequenceFile(fs, f.path);
      M3R_CHECK(pairs.ok()) << pairs.status().ToString();
      for (const auto& [k, v] : *pairs) {
        rows.push_back(k->ToString() + "\x1f" + v->ToString());
      }
    } else {
      auto content = fs.ReadFile(f.path);
      M3R_CHECK(content.ok()) << content.status().ToString();
      std::istringstream in(*content);
      for (std::string l; std::getline(in, l);) rows.push_back(l);
    }
  }
  std::sort(rows.begin(), rows.end());
  M3R_CHECK(!rows.empty()) << "no output under " << dir;
  return rows;
}

using Test = std::function<bool(const Sheet&)>;
using Columns = std::vector<std::string>;

/// `ok(lo's value, hi's value)` for each of `columns`, at every sweep
/// point arm `lo` was measured at.
Test Pairwise(std::string lo, std::string hi, Columns columns,
              std::function<bool(double, double)> ok) {
  return [=](const Sheet& s) {
    for (double x : s.Xs(lo)) {
      for (const std::string& c : columns) {
        if (!ok(s.At(lo, x)[c], s.At(hi, x)[c])) return false;
      }
    }
    return true;
  };
}

/// Arm `hi`'s `columns` are at least `factor` times arm `lo`'s.
Test AtLeast(std::string hi, std::string lo, Columns columns,
             double factor = 1) {
  return Pairwise(lo, hi, columns,
                  [factor](double l, double h) { return h >= factor * l; });
}

/// Arm `lo`'s `columns` are below arm `hi`'s.
Test Below(std::string lo, std::string hi, Columns columns) {
  return Pairwise(lo, hi, columns, std::less<double>());
}

/// `pred` holds on every line whose arm starts with `prefix`.
Test Each(std::string prefix, std::function<bool(const Line&)> pred) {
  return [=](const Sheet& s) {
    for (const Line& line : s.lines) {
      if (line.arm.starts_with(prefix) && !pred(line)) return false;
    }
    return true;
  };
}

/// Every value of `arm`'s `columns` lies within `tolerance` (relative) of
/// their mean.
Test Flat(std::string arm, Columns columns, double tolerance) {
  return [=](const Sheet& s) {
    std::vector<double> v;
    for (const std::string& c : columns) {
      std::vector<double> series = s.Series(arm, c);
      v.insert(v.end(), series.begin(), series.end());
    }
    const double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    return std::all_of(v.begin(), v.end(), [&](double x) {
      return std::fabs(x - mean) <= tolerance * mean;
    });
  };
}

/// `arm`'s `column` never falls as the sweep grows.
Test Grows(std::string arm, std::string column = "sim_s") {
  return [=](const Sheet& s) {
    std::vector<double> v = s.Series(arm, column);
    return std::is_sorted(v.begin(), v.end());
  };
}

/// `arm`'s `column` is linear in the sweep: the least-squares line's
/// coefficient of determination is at least `r2`.
Test Linear(std::string arm, std::string column, double r2) {
  return [=](const Sheet& s) {
    const std::vector<double> x = s.Xs(arm), y = s.Series(arm, column);
    const double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      sx += x[i];
      sy += y[i];
      sxx += x[i] * x[i];
      syy += y[i] * y[i];
      sxy += x[i] * y[i];
    }
    const double cov = n * sxy - sx * sy;
    return cov * cov >= r2 * (n * sxx - sx * sx) * (n * syy - sy * sy);
  };
}

Test Both(Test a, Test b) {
  return [=](const Sheet& s) { return a(s) && b(s); };
}

const Columns kIterations = {"iter1_s", "iter2_s", "iter3_s"};

// "off" is the barrier exchange (threshold 0: nothing ships before the
// barrier); "on" is a threshold small enough that every lane streams
// several runs at these scales.
const Knob kBarrier = {api::conf::kShuffleFlushBytes, "0"};
const Knob kPipelined = {api::conf::kShuffleFlushBytes, "16384"};
const Knob kHashCombine = {api::conf::kMapHashCombine, "true"};

/// Integrity repair with one injected corruption at `site`.
std::vector<Knob> RepairWithOneCorruption(const std::string& site) {
  return {kHashCombine,
          {api::conf::kIntegrityMode, "repair"},
          {"m3r.fault.seed", "9"},
          {"m3r.fault." + site + ".prob", "1.0"},
          {"m3r.fault." + site + ".limit", "1"}};
}

// --- Workloads ---

/// The sort kernel against the pre-overhaul SortPairs shape (stable_sort
/// with a virtual comparator per comparison), 1M random 16-byte keys. Wall
/// time only: the one non-engine row.
void MeasureSortKernel(const Arm&, double, Line* line,
                       std::vector<Record>* records) {
  constexpr size_t kKeys = 1'000'000;
  Rng rng(42);
  std::vector<std::string> keys(kKeys);
  for (std::string& k : keys) {
    k.resize(16);
    for (size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<char>(rng.NextU64() & 0xff);
    }
  }
  std::vector<std::string_view> views(keys.begin(), keys.end());
  const serialize::BytesComparator bytes_cmp;
  const serialize::RawComparator* cmp = &bytes_cmp;
  std::vector<uint32_t> baseline(kKeys);
  std::iota(baseline.begin(), baseline.end(), 0u);
  const double baseline_s = WallSeconds([&] {
    std::stable_sort(baseline.begin(), baseline.end(),
                     [&](uint32_t a, uint32_t b) {
                       return cmp->Compare(views[a], views[b]) < 0;
                     });
  });
  std::vector<uint32_t> serial;
  const double serial_s = WallSeconds(
      [&] { serial = sortkit::StableSortPermutation(views, {}); });
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::max(2, std::min(hw, 8));
  Executor pool(workers);
  sortkit::SortOptions par_options;
  par_options.executor = &pool;
  par_options.max_workers = workers;
  std::vector<uint32_t> parallel;
  const double parallel_s = WallSeconds(
      [&] { parallel = sortkit::StableSortPermutation(views, par_options); });
  M3R_CHECK(serial == baseline) << "kernel serial order != stable_sort";
  M3R_CHECK(parallel == baseline) << "kernel parallel order != stable_sort";

  line->Set("stable_sort_s", baseline_s);
  line->Set("kernel_s", serial_s);
  line->Set("parallel_s", parallel_s);
  auto rec = [&](const std::string& config, double wall) {
    records->push_back({"sort_micro", config, wall, 0, 0,
                        {{"keys", static_cast<int64_t>(kKeys)},
                         {"speedup_vs_baseline_pct",
                          static_cast<int64_t>(100.0 * baseline_s / wall)}}});
  };
  rec("stable_sort_baseline", baseline_s);
  rec("kernel_serial", serial_s);
  rec("kernel_parallel_w" + std::to_string(workers), parallel_s);
}

/// One shuffle micro job over fresh input (fig6's workload, one
/// iteration): `pairs` ascending keys with `value_bytes` values in
/// `partitions` partitions, `ratio` of them rewritten to partition to the
/// adjacent host. Records the run as `bench_name`.
bench::Measure MeasureMicroSmoke(std::string bench_name, uint64_t pairs,
                                 uint64_t value_bytes, int partitions,
                                 double ratio, bool hadoop_placement) {
  return [=](const Arm& arm, double, Line* line,
             std::vector<Record>* records) {
    auto fs = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateMicroInput(*fs, "/micro/in", pairs,
                                               value_bytes, partitions, 42,
                                               hadoop_placement));
    auto engine = MakeEngine(arm, fs);
    api::JobResult r;
    const double wall = WallSeconds([&] {
      r = Run(*engine, arm,
              workloads::MakeMicroJob("/micro/in", "/micro/out", partitions,
                                      ratio, 1));
    });
    line->output = SortedOutput(*ViewOf(*engine, fs), "/micro/out", true);
    M3R_CHECK(line->output.size() == pairs) << arm.name;
    line->Set("sim_s", r.sim_seconds);
    for (const char* key :
         {"shuffle_wire_bytes", "shuffle_runs_shipped",
          "shuffle_overflow_spills", "shuffle_max_partition_run_bytes"}) {
      line->Set(key, Metric(r, key));
    }
    char config[96];
    std::snprintf(config, sizeof(config),
                  " pairs=%llu value=%llu partitions=%d remote=%.1f",
                  static_cast<unsigned long long>(pairs),
                  static_cast<unsigned long long>(value_bytes), partitions,
                  ratio);
    records->push_back(Trajectory(bench_name, arm.name + config, wall, r));
  };
}

/// 4x2 cluster with 16 KB blocks: 2 MiB of text = ~128 splits, so each
/// place's single worker lane runs ~32 map tasks, the scope the
/// lane-persistent hash table folds across.
void MeasureWordCountSmoke(const Arm& arm, double, Line* line,
                           std::vector<Record>* records) {
  sim::ClusterSpec spec = bench::PaperCluster();
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  auto fs = dfs::MakeSimDfs(spec.num_nodes, 16 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/text", 2 * 1024 * 1024, 4, 7));
  auto engine = MakeEngine(arm, fs, spec);
  api::JobResult r;
  const double wall = WallSeconds([&] {
    r = Run(*engine, arm,
            workloads::MakeWordCountJob("/text", "/out", 16, true));
  });
  line->output = SortedOutput(*fs, "/out", false);
  line->Set("sim_s", r.sim_seconds);
  line->Set("wire_bytes", Metric(r, "shuffle_wire_bytes"));
  line->Set("repaired", Metric(r, "integrity_repaired"));
  records->push_back(Trajectory(
      "fig8_wordcount",
      arm.name + " cluster=4x2 text=2MiB reducers=16 workers=1", wall, r));
}

/// The shuffle micro-benchmark (§6.1) with 1 KiB values in 160 partitions
/// (the paper's 8 reducers x 20 nodes), iterations chaining output to
/// input. M3R repartitions Hadoop-placed input first, in an instance of
/// its own (§6.1.1: "a one-off cost", so iteration 1 starts cold and pays
/// the HDFS read); its outputs but the third are temporary and each
/// consumed input is deleted (cache hygiene, §6.1).
std::vector<api::JobResult> RunMicroChain(const Arm& arm, uint64_t pairs,
                                          bool hadoop_placement, double ratio,
                                          int iterations, double* repart_s) {
  constexpr int kPartitions = 160;
  auto fs = bench::PaperDfs();
  M3R_CHECK_OK(workloads::GenerateMicroInput(*fs, "/micro/in", pairs, 1024,
                                             kPartitions, 42,
                                             hadoop_placement));
  std::string input = "/micro/in";
  if (arm.m3r && hadoop_placement) {
    auto repart_engine = MakeEngine(arm, fs);
    api::JobResult repart = repart_engine->Submit(engine::MakeRepartitionJob(
        workloads::MakeMicroJob("/micro/in", "", kPartitions, 0, 1),
        "/micro/in", "/micro/stable"));
    M3R_CHECK(repart.ok()) << repart.status.ToString();
    if (repart_s != nullptr) *repart_s = repart.sim_seconds;
    input = "/micro/stable";
  }
  auto engine = MakeEngine(arm, fs);
  std::vector<api::JobResult> results;
  for (int it = 0; it < iterations; ++it) {
    std::string output = !arm.m3r ? "/micro/out-" + std::to_string(it)
                         : it < 2 ? "/micro/temp-out-" + std::to_string(it)
                                  : "/micro/final";
    results.push_back(
        Run(*engine, arm,
            workloads::MakeMicroJob(input, output, kPartitions, ratio,
                                    static_cast<uint64_t>(it + 1))));
    if (arm.m3r && it > 0) {
      M3R_CHECK_OK(ViewOf(*engine, fs)->Delete(input, true));
    }
    input = output;
  }
  return results;
}

void MeasureFig6(const Arm& arm, double x, Line* line,
                 std::vector<Record>*) {
  double repart_s = 0;
  std::vector<api::JobResult> runs =
      RunMicroChain(arm, 20000, true, x / 100, 3, &repart_s);
  for (size_t it = 0; it < runs.size(); ++it) {
    line->Set("iter" + std::to_string(it + 1) + "_s", runs[it].sim_seconds);
  }
  if (arm.m3r) {
    line->Set("repart_s", repart_s);
    line->Set("first_reduce_ms",
              Metric(runs.back(), "time_to_first_reduce_ms"));
  }
}

/// SpMV (§6.2): G in 500-square CSC blocks at sparsity 0.001, one
/// partition per row block up to 160, two ImmutableOutput jobs per
/// iteration. With `prepopulate` the M3R cache starts warm, as in Figure 7
/// ("the initial I/O overhead ... is not measured").
std::vector<api::JobResult> RunSpmv(const Arm& arm, int64_t rows,
                                    int iterations, bool prepopulate) {
  workloads::SpmvDataParams params;
  params.n = rows;
  params.block = 500;
  params.sparsity = 0.001;
  const int row_blocks = static_cast<int>((rows + 499) / 500);
  params.num_partitions = std::min(row_blocks, 160);
  auto fs = bench::PaperDfs();
  M3R_CHECK_OK(workloads::GenerateSpmvData(*fs, "/spmv/g", "/spmv/v", params));
  auto engine = MakeEngine(arm, fs);
  if (arm.m3r && prepopulate) {
    api::JobConf pre;
    pre.AddInputPath("/spmv/g");
    pre.AddInputPath("/spmv/v");
    pre.SetInputFormatClass(api::SequenceFileInputFormat::kClassName);
    auto& m3r = static_cast<engine::M3REngine&>(*engine);
    M3R_CHECK(m3r.PrepopulateCache(pre).ok());
  }
  std::vector<api::JobResult> results;
  std::string v_in = "/spmv/v";
  for (int it = 0; it < iterations; ++it) {
    std::string v_out = "/spmv/temp-v" + std::to_string(it + 1);
    for (const auto& job : workloads::MakeSpmvIterationJobs(
             "/spmv/g", v_in, "/spmv/temp-p" + std::to_string(it), v_out,
             params.num_partitions, row_blocks)) {
      results.push_back(Run(*engine, arm, job));
    }
    v_in = v_out;
  }
  return results;
}

/// Figure 7: three SpMV iterations from a warm cache, summed.
void MeasureSpmv(const Arm& arm, double rows, Line* line,
                 std::vector<Record>*) {
  double total = 0;
  for (const api::JobResult& r :
       RunSpmv(arm, static_cast<int64_t>(rows), 3, true)) {
    total += r.sim_seconds;
  }
  line->Set("sim_s", total);
}

/// WordCount over `mb` MiB of text on the paper cluster, 160 reducers.
api::JobResult RunWordCount(const Arm& arm, double mb) {
  auto fs = bench::PaperDfs();
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/text",
                                       static_cast<uint64_t>(mb) << 20, 20, 7));
  auto engine = MakeEngine(arm, fs);
  return Run(*engine, arm,
             workloads::MakeWordCountJob("/text", "/out", 160,
                                         arm.immutable_mapper));
}

void MeasureWordCount(const Arm& arm, double mb, Line* line,
                      std::vector<Record>*) {
  line->Set("sim_s", RunWordCount(arm, mb).sim_seconds);
}

/// Figures 9-11 (§6.4): a mini-SystemML program at input size `x`. It
/// writes its matrices through the DFS and runs through the engine's view
/// of it; as in the paper its jobs use neither ImmutableOutput nor
/// placement-aware partitioners, and its COO blocks are deliberately
/// bulky, so M3R's win is the cache and the in-memory shuffle alone.
bench::Measure MeasureSysml(sysml::AlgorithmResult (*program)(
    api::Engine& engine, const FsPtr& fs, int64_t x)) {
  return [program](const Arm& arm, double x, Line* line,
                   std::vector<Record>*) {
    auto fs = bench::PaperDfs();
    auto engine = MakeEngine(arm, fs);
    sysml::AlgorithmResult r = program(*engine, fs, static_cast<int64_t>(x));
    M3R_CHECK(r.status.ok()) << r.status.ToString();
    line->Set("jobs", r.jobs);
    line->Set("sim_s", r.sim_seconds);
  };
}

constexpr int32_t kBlock = 500;
constexpr int kSysmlReducers = 40;

sysml::AlgorithmResult Gnmf(api::Engine& engine, const FsPtr& fs,
                            int64_t rows) {
  sysml::MatrixDescriptor v{"/V", rows, 1000, kBlock};
  M3R_CHECK_OK(sysml::WriteRandomMatrix(*fs, v, 0.001, 11, kSysmlReducers));
  return sysml::RunGNMF(engine, ViewOf(engine, fs), v, 10, 2, "/gnmf",
                        kSysmlReducers, 17);
}

sysml::AlgorithmResult LinReg(api::Engine& engine, const FsPtr& fs,
                              int64_t points) {
  sysml::MatrixDescriptor x{"/X", points, 1000, kBlock};
  sysml::MatrixDescriptor y{"/y", points, 1, kBlock};
  M3R_CHECK_OK(sysml::WriteRandomMatrix(*fs, x, 0.001, 23, kSysmlReducers));
  M3R_CHECK_OK(sysml::WriteRandomMatrix(*fs, y, 1.0, 29, kSysmlReducers));
  return sysml::RunLinReg(engine, ViewOf(engine, fs), x, y, 2, "/lr",
                          kSysmlReducers);
}

sysml::AlgorithmResult PageRank(api::Engine& engine, const FsPtr& fs,
                                int64_t nodes) {
  sysml::MatrixDescriptor g{"/G", nodes, nodes, kBlock};
  sysml::MatrixDescriptor v0{"/v0", nodes, 1, kBlock};
  M3R_CHECK_OK(sysml::WriteRandomMatrix(*fs, g, 0.001, 31, kSysmlReducers));
  M3R_CHECK_OK(sysml::WriteRandomMatrix(*fs, v0, 1.0, 37, kSysmlReducers));
  return sysml::RunPageRank(engine, ViewOf(engine, fs), g, v0, 3, 0.85, "/pr",
                            kSysmlReducers);
}

const std::vector<bench::Claim> kSysmlClaims = {
    {"M3R is at least 10x faster than Hadoop at every size",
     AtLeast("hadoop", "m3r", {"sim_s"}, 10)},
    {"Hadoop is dominated by per-job constants: within 10% of its mean at "
     "every size",
     Flat("hadoop", {"sim_s"}, 0.1)},
    {"M3R's time grows with input size", Grows("m3r")},
};

/// Two iterations of the shuffle micro, 10000 pairs at 20% remote on
/// partition-stable input: the cache and partition-stability ablations.
void MeasureMicroTwice(const Arm& arm, double, Line* line,
                       std::vector<Record>*) {
  std::vector<api::JobResult> r =
      RunMicroChain(arm, 10000, false, 0.2, 2, nullptr);
  line->Set("iter1_s", r[0].sim_seconds);
  line->Set("iter2_s", r[1].sim_seconds);
  line->Set("remote_pairs2", Metric(r[1], "shuffle_remote_pairs"));
}

/// One job's sim, its time_breakdown in phase-catalogue order and the
/// activity counts it reports: for the rows that attribute time.
bench::Measure Detail(std::function<api::JobResult(const Arm&, double)> run) {
  return [run](const Arm& arm, double x, Line* line, std::vector<Record>*) {
    const api::JobResult r = run(arm, x);
    line->Set("sim_s", r.sim_seconds);
    for (const api::phases::Phase& phase : api::phases::Table()) {
      auto it = r.time_breakdown.find(phase.name);
      if (it != r.time_breakdown.end()) line->Set(phase.name, it->second);
    }
    for (const char* key :
         {"shuffle_remote_pairs", "shuffle_wire_bytes", "dedup_objects",
          "cloned_pairs", "aliased_pairs", "hdfs_read_bytes",
          "hdfs_write_bytes", "shuffle_bytes", "spill_write_bytes"}) {
      if (r.metrics.count(key)) line->Set(key, Metric(r, key));
    }
  };
}

// --- The table ---

const Arm kHadoop{.name = "hadoop", .m3r = false};
const Arm kM3R{.name = "m3r"};

const std::vector<Row> kRows = {
    {.id = "sort_micro",
     .section = "sort kernel, 1M random 16-byte keys (wall s)",
     .scale = Scale::kSmoke, .json = "shuffle",
     .arms = {{.name = "kernel"}}, .measure = MeasureSortKernel},

    {.id = "fig6_smoke",
     .section = "Figure 6 smoke: 4000 x 512 B, 32 partitions, 50% remote",
     .scale = Scale::kSmoke, .json = "shuffle",
     .arms = {kHadoop,
              {.name = "m3r pipeline=off", .knobs = {kBarrier}},
              {.name = "m3r pipeline=on", .knobs = {kPipelined}}},
     .measure =
         MeasureMicroSmoke("fig6_shuffle_micro", 4000, 512, 32, 0.5, true),
     .claims = {{"pipelined shuffle beats the barrier batch in sim",
                 Below("m3r pipeline=on", "m3r pipeline=off", {"sim_s"})},
                {"the pipelined arm ships more runs than the barrier's one "
                 "per lane",
                 Below("m3r pipeline=off", "m3r pipeline=on",
                       {"shuffle_runs_shipped"})}}},

    // Per-partition run bytes are several times the budget: the barrier
    // batch holds the whole working set resident, the budgeted pipelined
    // run cannot, so whole runs overflow through the checkpoint spill and
    // merge back at reduce.
    {.id = "shuffle_overflow",
     .section = "overflow: 8000 x 1 KiB all remote, 4 partitions, 1 MiB budget",
     .scale = Scale::kSmoke, .json = "shuffle",
     .arms = {{.name = "m3r pipeline=off", .knobs = {kBarrier}},
              {.name = "m3r pipeline=on budget=1MB",
               .knobs = {kPipelined,
                         {api::conf::kShufflePartitionBudgetMb, "1"}}}},
     .measure =
         MeasureMicroSmoke("shuffle_overflow", 8000, 1024, 4, 1.0, false),
     .claims = {{"the budgeted run overflows, its largest partition run "
                 "above the 1 MiB budget",
                 Each("m3r pipeline=on", [](const Line& l) {
                   return l["shuffle_overflow_spills"] > 0 &&
                          l["shuffle_max_partition_run_bytes"] > (1 << 20);
                 })}}},

    {.id = "fig8_smoke",
     .section = "Figure 8 smoke: WordCount 2 MiB on 4x2, hash-combine, repair",
     .scale = Scale::kSmoke, .json = "wordcount",
     .arms = {{.name = "hadoop combine=off", .m3r = false},
              {.name = "hadoop combine=on", .m3r = false,
               .knobs = {kHashCombine}},
              {.name = "m3r combine=off"},
              {.name = "m3r combine=on pipeline=off",
               .knobs = {kHashCombine, kBarrier}},
              {.name = "m3r combine=on", .knobs = {kHashCombine, kPipelined}},
              {.name = "hadoop combine=on repair+corrupt.spill", .m3r = false,
               .knobs = RepairWithOneCorruption("corrupt.spill")},
              {.name = "m3r combine=on repair+corrupt.channel.frame",
               .knobs = RepairWithOneCorruption("corrupt.channel.frame")}},
     .measure = MeasureWordCountSmoke,
     .claims = {{"pipelined WordCount beats the barrier batch in sim",
                 Below("m3r combine=on", "m3r combine=on pipeline=off",
                       {"sim_s"})},
                {"hash-combine cuts M3R's shuffle wire bytes",
                 Below("m3r combine=on", "m3r combine=off", {"wire_bytes"})},
                {"each repair arm repaired its injected corruption",
                 Each("", [](const Line& l) {
                   return l.arm.find("repair") == std::string::npos ||
                          l["repaired"] >= 1;
                 })}}},

    {.id = "fig6",
     .section = "§6.1 Figure 6: shuffle micro-benchmark, 20000 x 1 KiB, "
                "160 partitions, 3 iterations (sim seconds per iteration)",
     .arms = {kHadoop,
              {.name = "m3r barrier", .knobs = {kBarrier}},
              {.name = "m3r pipelined", .knobs = {kPipelined}}},
     .x_name = "remote_pct", .xs = {0, 20, 40, 60, 80, 100},
     .measure = MeasureFig6,
     .claims =
         {{"Hadoop is flat: every iteration at every remote % within 2% of "
           "the Hadoop mean",
           Flat("hadoop", kIterations, 0.02)},
          {"M3R iteration 1 is linear in remote % (R² ≥ 0.95), both shuffles",
           Both(Linear("m3r barrier", "iter1_s", 0.95),
                Linear("m3r pipelined", "iter1_s", 0.95))},
          {.text = "M3R iterations 2-3 cost less than iteration 1 at every "
                   "remote %",
           .test = Each("m3r",
                        [](const Line& l) {
                          return l["iter2_s"] < l["iter1_s"] &&
                                 l["iter3_s"] < l["iter1_s"];
                        }),
           .deviation = "iterations 2-3 ship more remote pairs than "
                        "iteration 1 (see fig6_phases), so their `shuffle` "
                        "phase grows by more than the cache saves in "
                        "`map_phase`; iteration 3 also writes the final, "
                        "replicated output (`reduce_phase`)"},
          {"M3R is at least 3x faster than Hadoop at every remote % and "
           "iteration (paper: even 100% remote wins by a wide margin)",
           Both(AtLeast("hadoop", "m3r barrier", kIterations, 3),
                AtLeast("hadoop", "m3r pipelined", kIterations, 3))},
          {"pipelined is no slower than barrier, every iteration and "
           "remote %",
           AtLeast("m3r barrier", "m3r pipelined", kIterations)},
          {"§6.1.1: the one-off repartition costs under half a Hadoop "
           "iteration",
           [](const Sheet& s) {
             return Each("m3r", [&](const Line& m) {
               return m["repart_s"] < 0.5 * s.At("hadoop", m.x)["iter1_s"];
             })(s);
           }}}},

    {.id = "fig6_phases",
     .section = "§6.1 Figure 6, M3R barrier at 40% remote, per iteration",
     .arms = {{.name = "m3r barrier", .knobs = {kBarrier}}},
     .x_name = "iteration", .xs = {1, 2, 3},
     .measure = Detail([](const Arm& arm, double x) {
       return RunMicroChain(arm, 20000, true, 0.4, static_cast<int>(x),
                            nullptr)
           .back();
     }),
     .claims =
         {{.text = "every iteration ships the declared 40% of its 20000 "
                   "pairs remotely (within 5%)",
           .test = Each("m3r",
                        [](const Line& l) {
                          return std::fabs(l["shuffle_remote_pairs"] -
                                           8000) <= 400;
                        }),
           .deviation = "the mapper's coin hashes key + seed "
                        "multiplicatively; the seed rises by one per "
                        "iteration and a moved pair's key by one, so from "
                        "iteration 2 each pair's coin is an earlier coin of "
                        "a neighbouring key, and those structured coins no "
                        "longer draw the ratio"}}},

    {.id = "fig7",
     .section = "§6.2 Figure 7: SpMV, 3 iterations x 2 jobs (sim s)",
     .arms = {kHadoop, kM3R},
     .x_name = "rows", .xs = {5000, 10000, 20000, 40000, 80000},
     .measure = MeasureSpmv,
     .claims = {{"M3R is at least 10x faster than Hadoop at every size",
                 AtLeast("hadoop", "m3r", {"sim_s"}, 10)},
                {"M3R is over 20x faster at some size (paper: 45x on some "
                 "sizes)",
                 [](const Sheet& s) {
                   return !AtLeast("m3r", "hadoop", {"sim_s"}, 1.0 / 20)(s);
                 }},
                {"Hadoop's time grows with rows", Grows("hadoop")}}},

    {.id = "fig8",
     .section = "§6.3 Figure 8: WordCount, 160 reducers (sim s)",
     .arms = {{.name = "hadoop fresh", .m3r = false},
              {.name = "hadoop reuse", .m3r = false,
               .immutable_mapper = false},
              kM3R},
     .x_name = "text_mb", .xs = {1, 2, 4, 8, 16},
     .measure = MeasureWordCount,
     .claims = {{"M3R is at least 1.5x faster than either Hadoop series at "
                 "every size (paper: about 2x)",
                 Both(AtLeast("hadoop fresh", "m3r", {"sim_s"}, 1.5),
                      AtLeast("hadoop reuse", "m3r", {"sim_s"}, 1.5))},
                {"the fresh-allocation and reuse Hadoop mappers are within "
                 "5% of each other",
                 Pairwise("hadoop reuse", "hadoop fresh", {"sim_s"},
                          [](double reuse, double fresh) {
                            return std::fabs(reuse - fresh) <= 0.05 * fresh;
                          })}}},

    {.id = "fig9",
     .section = "§6.4 Figure 9: SystemML GNMF, 1000 columns, rank 10, "
                "2 iterations, sparsity 0.001 (sim seconds)",
     .arms = {kHadoop, kM3R},
     .x_name = "rows", .xs = {2000, 4000, 8000, 16000},
     .measure = MeasureSysml(Gnmf), .claims = kSysmlClaims},

    {.id = "fig10",
     .section = "§6.4 Figure 10: SystemML linear regression, 1000 "
                "variables, 2 CG iterations, sparsity 0.001 (sim seconds)",
     .arms = {kHadoop, kM3R},
     .x_name = "points", .xs = {10000, 20000, 40000, 80000},
     .measure = MeasureSysml(LinReg), .claims = kSysmlClaims},

    {.id = "fig11",
     .section = "§6.4 Figure 11: SystemML PageRank, 3 iterations, damping "
                "0.85, sparsity 0.001 (sim seconds)",
     .arms = {kHadoop, kM3R},
     .x_name = "nodes", .xs = {2000, 4000, 8000, 16000},
     .measure = MeasureSysml(PageRank), .claims = kSysmlClaims},

    {.id = "ablation_cache",
     .section = "ablation: cache and partition stability, shuffle micro "
                "10000 x 1 KiB, 160 partitions, 20% remote",
     .arms = {{.name = "full M3R"},
              {.name = "no input/output cache", .enable_cache = false},
              {.name = "no partition stability",
               .partition_stability = false}},
     .measure = MeasureMicroTwice,
     .claims = {{"without partition stability 5x the pairs shuffle remotely",
                 AtLeast("no partition stability", "full M3R",
                         {"remote_pairs2"}, 5)},
                {"the cache makes iteration 2 cheaper than without it, and "
                 "cheaper than iteration 1",
                 Both(Below("full M3R", "no input/output cache", {"iter2_s"}),
                      Each("full M3R", [](const Line& l) {
                        return l["iter2_s"] < l["iter1_s"];
                      }))}}},

    {.id = "ablation_dedup",
     .section = "ablation: de-duplication, SpMV job 1, 20000 rows (sim s)",
     .arms = {{.name = "full (X10)"},
              {.name = "consecutive-only (§6.3)",
               .dedup = serialize::DedupMode::kConsecutive},
              {.name = "off", .dedup = serialize::DedupMode::kOff}},
     // 40 row blocks over 20 places: each place hosts two partitions, so
     // the broadcast V block reaches every remote place twice, once after
     // de-duplication.
     .measure = Detail([](const Arm& arm, double) {
       return RunSpmv(arm, 20000, 1, false)[0];
     }),
     .claims = {{"dedup off roughly doubles the wire bytes (at least 1.9x) "
                 "and costs sim",
                 Both(AtLeast("off", "full (X10)", {"shuffle_wire_bytes"}, 1.9),
                      Below("full (X10)", "off", {"sim_s"}))},
                {"consecutive-only de-duplicates as much as full for this "
                 "emission idiom",
                 Pairwise("consecutive-only (§6.3)", "full (X10)",
                          {"shuffle_wire_bytes"}, std::equal_to<double>())}}},

    {.id = "ablation_immutable",
     .section = "ablation: ImmutableOutput vs cloning, WordCount 4 MB (sim s)",
     .arms = {{.name = "honor ImmutableOutput"},
              {.name = "ignore (clone everything)",
               .respect_immutable = false}},
     .measure = Detail([](const Arm& arm, double) {
       return RunWordCount(arm, 4);
     }),
     .claims = {{"honoring ImmutableOutput clones no pair; ignoring it "
                 "aliases none",
                 Each("", [](const Line& l) {
                   const bool honor = l.arm == "honor ImmutableOutput";
                   return (l["cloned_pairs"] == 0) == honor &&
                          (l["aliased_pairs"] > 0) == honor;
                 })},
                {.text = "honoring ImmutableOutput saves sim",
                 .test = Below("honor ImmutableOutput",
                               "ignore (clone everything)", {"sim_s"}),
                 .deviation = "cloning is uncharged in counted sim: "
                              "sim::CpuWork has no clone count, so both "
                              "arms charge the same work"}}},

    // §6.1 attributes the gap to "overheads inherent in Hadoop's task
    // polling model, disk-based out-of-core shuffling, and JVM startup/tear
    // down costs". M3R's instance start (8 s) is charged once per
    // instance, not per job.
    {.id = "overheads",
     .section = "engine overhead breakdown, WordCount 8 MB (sim s)",
     .arms = {kHadoop, kM3R},
     .measure = Detail([](const Arm& arm, double) {
       return RunWordCount(arm, 8);
     }),
     .claims = {{"Hadoop's per-job submit and commit constants (polling, "
                 "JVM start) explain over half the gap",
                 [](const Sheet& s) {
                   const Line& h = s.At("hadoop");
                   const Line& m = s.At("m3r");
                   return h["submit"] + h["commit"] - m["job_overhead"] >
                          0.5 * (h["sim_s"] - m["sim_s"]);
                 }}}},
};

}  // namespace
}  // namespace m3r::bench

int main(int argc, char** argv) {
  return m3r::bench::ExperimentsMain(m3r::bench::kRows, argc, argv);
}

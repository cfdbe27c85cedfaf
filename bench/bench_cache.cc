// Memory-governor trajectory bench (DESIGN.md §11): iterative SpMV under a
// sweep of m3r.memory.budget.mb values, recording cache hit rates,
// evictions, and wall/sim seconds per budget, plus the ReStore-style
// m3r.cache.reuse=exact resubmission short-circuit. Each run is one JSON
// record
//   {bench, config, wall_seconds, sim_seconds, wire_bytes, counters}
// in BENCH_cache.json. CI runs it as a smoke (valid JSON, outputs match
// the local reference, counters move the right way across budgets); the
// committed file records how the numbers move PR over PR.
//
//   bench_cache [--out-dir DIR] [--suffix S]
//
// writes DIR/BENCH_cache<S>.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/counters.h"
#include "api/job_conf.h"
#include "bench_util.h"
#include "dfs/local_fs.h"
#include "m3r/m3r_engine.h"
#include "workloads/matrix_gen.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

double WallSeconds(const std::function<void()>& body) {
  auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

using bench::Record;

workloads::SpmvDataParams SweepParams() {
  workloads::SpmvDataParams params;
  params.n = 3000;
  params.block = 375;  // 8 row blocks over 4 places
  params.sparsity = 0.02;
  params.num_partitions = 8;
  return params;
}

/// Tallies one budget configuration of the sweep.
struct SweepResult {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t spilled = 0;
  int64_t rejected = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
};

/// Runs `iterations` SpMV iterations on a fresh engine with the given
/// budget (0 = ungoverned) and validates the final vector against the
/// locally computed reference.
SweepResult RunSpmvSweepPoint(int64_t budget_mb, int iterations) {
  const workloads::SpmvDataParams params = SweepParams();
  auto fs = dfs::MakeSimDfs(4, 256 * 1024);
  M3R_CHECK_OK(workloads::GenerateSpmvData(*fs, "/spmv/g", "/spmv/v",
                                           params));
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  engine::M3REngine engine(fs, {spec});

  const int row_blocks =
      static_cast<int>((params.n + params.block - 1) / params.block);
  auto v_ref =
      workloads::ReadDenseVector(*fs, "/spmv/v", params.n, params.block);
  M3R_CHECK(v_ref.ok()) << v_ref.status().ToString();
  std::vector<double> expected = v_ref.take();

  SweepResult tally;
  std::string v_in = "/spmv/v";
  for (int it = 0; it < iterations; ++it) {
    std::string partial = "/spmv/temp-partial-" + std::to_string(it);
    std::string v_out = "/spmv/temp-v" + std::to_string(it + 1);
    auto jobs = workloads::MakeSpmvIterationJobs(
        "/spmv/g", v_in, partial, v_out, params.num_partitions, row_blocks);
    for (auto& job : jobs) {
      if (budget_mb > 0) {
        job.SetInt(api::conf::kMemoryBudgetMb, budget_mb);
        job.Set(api::conf::kCachePolicy, "cost");
      }
      api::JobResult result;
      tally.wall_seconds += WallSeconds([&] { result = engine.Submit(job); });
      M3R_CHECK(result.ok()) << result.status.ToString();
      tally.sim_seconds += result.sim_seconds;
      tally.hits += result.counters.Get(api::counters::kM3rGroup,
                                        api::counters::kCacheHits);
      tally.misses += result.counters.Get(api::counters::kM3rGroup,
                                          api::counters::kCacheMisses);
      if (budget_mb > 0) {
        tally.evictions += result.metrics.at("cache_evictions");
        tally.spilled += result.metrics.at("cache_spilled_evictions");
        tally.rejected += result.metrics.at("cache_rejected_fills");
      }
    }
    auto ref = workloads::ReferenceMultiply(*fs, "/spmv/g", expected,
                                            params.n, params.block);
    M3R_CHECK(ref.ok()) << ref.status().ToString();
    expected = ref.take();
    v_in = v_out;
  }

  auto v_final =
      workloads::ReadDenseVector(*engine.Fs(), v_in, params.n, params.block);
  M3R_CHECK(v_final.ok()) << v_final.status().ToString();
  M3R_CHECK(v_final->size() == expected.size());
  {
    size_t bad = 0, first_bad = expected.size();
    for (size_t i = 0; i < expected.size(); ++i) {
      double tol = 1e-9 + std::fabs(expected[i]) * 1e-9;
      if (std::fabs((*v_final)[i] - expected[i]) > tol) {
        if (bad < 8) {
          std::fprintf(stderr,
                       "DIAG row %zu: got=%.17g expected=%.17g ratio=%.6f\n",
                       i, (*v_final)[i], expected[i],
                       expected[i] != 0 ? (*v_final)[i] / expected[i] : 0.0);
        }
        if (first_bad == expected.size()) first_bad = i;
        ++bad;
      }
    }
    if (bad > 0) {
      std::fprintf(stderr, "DIAG budget=%lld total_bad=%zu first=%zu\n",
                   static_cast<long long>(budget_mb), bad, first_bad);
    }
    M3R_CHECK(bad == 0) << "budget=" << budget_mb << "mb row " << first_bad
                        << " diverged";
  }
  return tally;
}

/// Budget sweep: 1/2/4 MiB then ungoverned. Hit rate must not fall and
/// eviction pressure must not rise as the budget loosens.
void RunBudgetSweep(std::vector<Record>* out) {
  bench::Banner("Cache budget sweep: 5-iteration SpMV, cost policy");
  constexpr int kIterations = 5;
  const int64_t budgets_mb[] = {1, 2, 4, 0};  // 0 = ungoverned
  bench::Table table({"budget_mb", "hit_rate_pct", "evictions", "rejected",
                      "sim_s"});
  int64_t prev_hit_rate = -1;
  int64_t prev_pressure = -1;
  for (int64_t budget_mb : budgets_mb) {
    SweepResult tally = RunSpmvSweepPoint(budget_mb, kIterations);
    int64_t lookups = tally.hits + tally.misses;
    int64_t hit_rate_pct = lookups > 0 ? 100 * tally.hits / lookups : 0;
    Record r;
    r.bench = "cache_budget_sweep";
    r.config = "m3r spmv n=3000 iters=5 policy=cost budget=" +
               (budget_mb > 0 ? std::to_string(budget_mb) + "mb"
                              : std::string("unlimited"));
    r.wall_seconds = tally.wall_seconds;
    r.sim_seconds = tally.sim_seconds;
    r.counters = {
        {"budget_mb", budget_mb},
        {"cache_hit_splits", tally.hits},
        {"cache_miss_splits", tally.misses},
        {"hit_rate_pct", hit_rate_pct},
        {"evictions", tally.evictions},
        {"spilled_evictions", tally.spilled},
        {"rejected_fills", tally.rejected},
    };
    table.Row({static_cast<double>(budget_mb),
               static_cast<double>(hit_rate_pct),
               static_cast<double>(tally.evictions),
               static_cast<double>(tally.rejected), tally.sim_seconds});
    // Monotonic across the loosening sweep: more memory never hurts. The
    // pressure signal is evictions + rejections — a tighter budget may
    // trade evictions for outright rejections, but their sum only falls.
    int64_t pressure = tally.evictions + tally.rejected;
    M3R_CHECK(prev_hit_rate < 0 || hit_rate_pct >= prev_hit_rate)
        << "hit rate fell when the budget grew";
    M3R_CHECK(prev_pressure < 0 || pressure <= prev_pressure)
        << "eviction+rejection pressure rose when the budget grew";
    prev_hit_rate = hit_rate_pct;
    prev_pressure = pressure;
    out->push_back(std::move(r));
  }
  // The tight end of the sweep actually exercised the governor.
  M3R_CHECK((*out)[0].counters[4].second > 0) << "no evictions at 1mb";
}

/// Sorted output lines under `dir`, for byte-identity checks across arms.
std::vector<std::string> OutputLines(dfs::FileSystem& fs,
                                     const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  M3R_CHECK(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory || f.path.find("part-") == std::string::npos) continue;
    auto content = fs.ReadFile(f.path);
    M3R_CHECK(content.ok()) << content.status().ToString();
    std::string cur;
    for (char c : *content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// One L2 arm: two WordCount passes over the same 4 MiB input on one
/// engine under `budget_mb`, with the tier at `l2_share` of the budget.
/// Pass 1 fills and (under pressure) demotes; pass 2's planner promotes
/// instead of re-reading the DFS — that delta is the tier's win.
struct L2ArmResult {
  double sim_seconds = 0;
  int64_t demotions = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t remote_bytes = 0;
  int64_t ring_heals = 0;
  int64_t overflow_fills = 0;
  std::vector<std::string> lines;  ///< final pass output
};

L2ArmResult RunL2Arm(int64_t budget_mb, double l2_share,
                     const char* crash_at, double* wall_seconds) {
  // 128 single-block files of 16 KiB: a shard cap (share * budget /
  // places, 256 KiB at the 1 MiB budget) packs 16 victims, so the tier
  // retains dozens of files with every place well represented — the
  // makespan is a max over places, so the win has to land on all of
  // them, not just on average. The arm's cluster models a contended
  // spinning disk (20 ms seek): the mapper CPU charge comes from
  // *measured* wall time, which jitters a few percent run to run, and
  // the seek savings must dwarf that jitter for the strictly-faster
  // check to be meaningful.
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 2 << 20, 128, 5));
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  spec.disk_seek_s = 0.02;
  engine::M3REngine engine(fs, {spec});

  L2ArmResult arm;
  // Pass 1 fills the tier; passes 2..3 each convert their promoted
  // splits' DFS seeks into memory/wire reads.
  constexpr int kPasses = 3;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::string out = "/out-p" + std::to_string(pass);
    api::JobConf job = workloads::MakeWordCountJob("/in", out, 3, true);
    job.SetInt(api::conf::kMemoryBudgetMb, budget_mb);
    // Barrier shuffle (flush threshold 0): the pipelined overlap credit
    // depends on wall-clock run timing, and that jitter would drown the
    // tier's read savings in a cross-arm sim comparison. The barrier charge
    // is deterministic.
    job.Set(api::conf::kShuffleFlushBytes, "0");
    if (l2_share > 0) {
      char share[32];
      std::snprintf(share, sizeof(share), "%g", l2_share);
      job.Set(api::conf::kCacheL2Share, share);
    }
    if (crash_at != nullptr && pass == 0) {
      job.Set(api::conf::kPlaceCrashAt, crash_at);
    }
    api::JobResult result;
    *wall_seconds += WallSeconds([&] { result = engine.Submit(job); });
    M3R_CHECK(result.ok()) << result.status.ToString();
    arm.sim_seconds += result.sim_seconds;
    if (l2_share > 0) {
      arm.demotions += result.metrics.at("l2_demotions");
      arm.hits += result.metrics.at("l2_hits");
      arm.misses += result.metrics.at("l2_misses");
      arm.remote_bytes += result.metrics.at("l2_remote_bytes");
      arm.ring_heals += result.metrics.at("l2_ring_heals");
      arm.overflow_fills += result.metrics.at("l2_overflow_fills");
    }
    if (pass == kPasses - 1) arm.lines = OutputLines(*fs, out);
    if (pass + 1 < kPasses) {
      // Deterministic inter-pass pressure: drain L1 completely (demoting
      // into the tier when it is on, the shard caps keep their configured
      // size) so every arm enters the next pass from the same cold L1.
      // Which blocks the tier retains still varies with eviction order,
      // but every retained block is a strict promote-vs-DFS-read win, so
      // the arm comparison cannot flip sign. The next submission restores
      // the budget from its conf.
      engine.governor().SetBudget(1);
      engine.cache_manager().EvictToBudget();
    }
  }
  M3R_CHECK(!arm.lines.empty());
  return arm;
}

/// L1-only vs L1+L2 at constrained budgets: the tier must strictly lower
/// sim_seconds at byte-identical output, and a scripted place crash must
/// heal the ring without DataLoss.
void RunL2TierSweep(std::vector<Record>* out) {
  bench::Banner("L2 tier sweep: 3-pass WordCount, L1-only vs L1+L2");
  bench::Table table({"budget_mb", "arm", "sim_s", "l2_hits", "demotions"});
  for (int64_t budget_mb : {1, 2}) {
    double wall_l1 = 0;
    double wall_l2 = 0;
    L2ArmResult l1 = RunL2Arm(budget_mb, 0.0, nullptr, &wall_l1);
    L2ArmResult l2 = RunL2Arm(budget_mb, 1.0, nullptr, &wall_l2);
    M3R_CHECK(l1.lines == l2.lines)
        << "L1+L2 output diverged at " << budget_mb << "mb";
    M3R_CHECK(l2.demotions > 0)
        << "the tier absorbed no evictions at " << budget_mb << "mb";
    M3R_CHECK(l2.hits > 0)
        << "no demoted block was promoted back at " << budget_mb << "mb";
    M3R_CHECK(l2.overflow_fills > 0)
        << "no rejected fill overflowed into the tier at " << budget_mb
        << "mb";
    M3R_CHECK(l2.sim_seconds < l1.sim_seconds)
        << "L1+L2 was not strictly faster at " << budget_mb << "mb: "
        << l2.sim_seconds << " vs " << l1.sim_seconds << " (hits="
        << l2.hits << " demotions=" << l2.demotions << " misses="
        << l2.misses << " remote_bytes=" << l2.remote_bytes << ")";
    table.Row({static_cast<double>(budget_mb), 1.0, l1.sim_seconds, 0.0,
               0.0});
    table.Row({static_cast<double>(budget_mb), 2.0, l2.sim_seconds,
               static_cast<double>(l2.hits),
               static_cast<double>(l2.demotions)});
    auto emit = [&](const char* name, const L2ArmResult& arm, double wall) {
      Record r;
      r.bench = "cache_l2_tier";
      r.config = "m3r wordcount 2MiB passes=3 budget=" +
                 std::to_string(budget_mb) + "mb arm=" + name;
      r.wall_seconds = wall;
      r.sim_seconds = arm.sim_seconds;
      r.counters = {
          {"budget_mb", budget_mb},
          {"l2_demotions", arm.demotions},
          {"l2_hits", arm.hits},
          {"l2_misses", arm.misses},
          {"l2_remote_bytes", arm.remote_bytes},
          {"l2_overflow_fills", arm.overflow_fills},
      };
      out->push_back(std::move(r));
    };
    emit("l1", l1, wall_l1);
    emit("l1+l2", l2, wall_l2);
  }

  // Ring-heal arm: place 1 dies before its second map task of pass 1 with
  // the tier live; the run must still match the crash-free arm's bytes
  // with at least one shard reassigned.
  double wall_heal = 0;
  L2ArmResult healthy = RunL2Arm(2, 1.0, nullptr, &wall_heal);
  L2ArmResult healed = RunL2Arm(2, 1.0, "1:1", &wall_heal);
  M3R_CHECK(healed.lines == healthy.lines) << "ring heal diverged output";
  M3R_CHECK(healed.ring_heals > 0) << "crash never reassigned a shard";
  Record r;
  r.bench = "cache_l2_ring_heal";
  r.config = "m3r wordcount 2MiB passes=3 budget=2mb crash=1:1";
  r.wall_seconds = wall_heal;
  r.sim_seconds = healed.sim_seconds;
  r.counters = {
      {"l2_ring_heals", healed.ring_heals},
      {"l2_demotions", healed.demotions},
      {"l2_hits", healed.hits},
  };
  out->push_back(std::move(r));
}

/// ReStore-style reuse: resubmitting an identical WordCount serves the
/// cached output; the served run skips map/reduce entirely.
void RunReuseResubmit(std::vector<Record>* out) {
  bench::Banner("Exact-reuse resubmission: WordCount 512KiB");
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 512 * 1024, 2, 3));
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  engine::M3REngine engine(fs, {spec});
  api::JobConf job = workloads::MakeWordCountJob("/in", "/temp-wc", 4, true);
  job.Set(api::conf::kCacheReuse, "exact");

  bench::Table table({"run", "sim_s", "reused"});
  double first_sim = 0;
  for (int run = 0; run < 2; ++run) {
    api::JobResult result;
    double wall = WallSeconds([&] { result = engine.Submit(job); });
    M3R_CHECK(result.ok()) << result.status.ToString();
    bool reused = result.metrics.count("reused_from_cache") > 0;
    M3R_CHECK(reused == (run == 1)) << "reuse fired on the wrong run";
    if (run == 0) {
      first_sim = result.sim_seconds;
    } else {
      M3R_CHECK(result.sim_seconds < first_sim)
          << "served resubmission was not cheaper";
    }
    Record r;
    r.bench = "cache_exact_reuse";
    r.config = std::string("m3r wordcount 512KiB ") +
               (run == 0 ? "first_run" : "resubmit");
    r.wall_seconds = wall;
    r.sim_seconds = result.sim_seconds;
    r.counters = {
        {"reused_from_cache", reused ? 1 : 0},
        {"map_tasks", result.metrics.count("map_tasks")
                          ? result.metrics.at("map_tasks")
                          : 0},
    };
    table.Row({static_cast<double>(run), r.sim_seconds, reused ? 1.0 : 0.0});
    out->push_back(std::move(r));
  }
}

}  // namespace
}  // namespace m3r

int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::string suffix;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--suffix" && i + 1 < argc) {
      suffix = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out-dir DIR] [--suffix S]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<m3r::bench::Record> records;
  m3r::RunBudgetSweep(&records);
  m3r::RunL2TierSweep(&records);
  m3r::RunReuseResubmit(&records);
  const std::string path = out_dir + "/BENCH_cache" + suffix + ".json";
  std::ofstream outf(path);
  outf << m3r::bench::ToJson(records);
  outf.close();
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
  return 0;
}

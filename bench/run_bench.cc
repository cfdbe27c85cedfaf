// Perf-trajectory harness: runs the sort-kernel micro plus small-scale
// fig6 (shuffle micro) and fig8 (WordCount) configurations, and records
// every run as a JSON record
//   {bench, config, wall_seconds, sim_seconds, wire_bytes, counters}
// in BENCH_shuffle.json / BENCH_wordcount.json. CI runs it as a smoke
// (valid JSON + byte-identical outputs, no perf thresholds); committed
// files record how the numbers move PR over PR.
//
//   run_bench [--out-dir DIR] [--suffix S]
//
// writes DIR/BENCH_shuffle<S>.json and DIR/BENCH_wordcount<S>.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/counters.h"
#include "api/sequence_file.h"

#include "bench_util.h"
#include "common/rng.h"
#include "common/sort.h"
#include "serialize/comparators.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
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

/// Minimal structural validation of an emitted file: balanced
/// brackets/braces outside strings and every required schema key present.
bool ValidateJsonFile(const std::string& path, size_t expect_records) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  int depth = 0;
  bool in_string = false;
  size_t objects = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') {
      if (--depth < 0) return false;
    }
    if (c == '{' && depth == 2) ++objects;  // top-level records only
  }
  if (depth != 0 || in_string) return false;
  if (objects < expect_records) return false;
  for (const char* key : {"\"bench\"", "\"config\"", "\"wall_seconds\"",
                          "\"sim_seconds\"", "\"wire_bytes\"",
                          "\"counters\""}) {
    if (text.find(key) == std::string::npos) return false;
  }
  return true;
}

int64_t Counter(const api::JobResult& r, const char* name) {
  return r.counters.Get(api::counters::kTaskGroup, name);
}

/// Copies the §15 pipelined-shuffle metrics (first-reduce latency, runs
/// shipped, overflow spills, peak run-pool bytes) into a record's counter
/// map when the run produced them.
void AddShuffleMetrics(const api::JobResult& result, Record* r) {
  for (const char* name :
       {"time_to_first_reduce_ms", "shuffle_runs_shipped",
        "shuffle_overflow_spills", "shuffle_pool_peak_bytes",
        "shuffle_max_partition_run_bytes"}) {
    if (result.metrics.count(name)) {
      r->counters.emplace_back(name, result.metrics.at(name));
    }
  }
}

// --- Sort micro: the tentpole's before/after, 1M random 16-byte keys ---

void RunSortMicro(std::vector<Record>* out) {
  bench::Banner("Sort kernel: 1M random 16-byte keys");
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

  // Baseline: the pre-overhaul SortPairs shape — std::stable_sort with a
  // virtual RawComparator::Compare per comparison.
  const serialize::BytesComparator bytes_cmp;
  const serialize::RawComparator* cmp = &bytes_cmp;
  std::vector<uint32_t> baseline(kKeys);
  std::iota(baseline.begin(), baseline.end(), 0u);
  double baseline_s = WallSeconds([&] {
    std::stable_sort(baseline.begin(), baseline.end(),
                     [&](uint32_t a, uint32_t b) {
                       return cmp->Compare(views[a], views[b]) < 0;
                     });
  });

  std::vector<uint32_t> serial;
  double serial_s = WallSeconds(
      [&] { serial = sortkit::StableSortPermutation(views, {}); });

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::max(2, std::min(hw, 8));
  Executor pool(workers);
  sortkit::SortOptions par_options;
  par_options.executor = &pool;
  par_options.max_workers = workers;
  std::vector<uint32_t> parallel;
  double parallel_s = WallSeconds(
      [&] { parallel = sortkit::StableSortPermutation(views, par_options); });

  M3R_CHECK(serial == baseline) << "kernel serial order != stable_sort";
  M3R_CHECK(parallel == baseline) << "kernel parallel order != stable_sort";

  bench::Table table({"keys_k", "stable_sort_s", "kernel_s", "parallel_s"});
  table.Row({kKeys / 1000.0, baseline_s, serial_s, parallel_s});
  std::printf("serial speedup %.2fx, parallel(%d) speedup %.2fx\n",
              baseline_s / serial_s, workers, baseline_s / parallel_s);

  auto rec = [&](const char* config, double wall, double speedup_pct) {
    Record r;
    r.bench = "sort_micro";
    r.config = config;
    r.wall_seconds = wall;
    r.counters = {{"keys", static_cast<int64_t>(kKeys)},
                  {"speedup_vs_baseline_pct",
                   static_cast<int64_t>(speedup_pct)}};
    out->push_back(std::move(r));
  };
  rec("stable_sort_baseline", baseline_s, 100);
  rec("kernel_serial", serial_s, 100.0 * baseline_s / serial_s);
  rec(("kernel_parallel_w" + std::to_string(workers)).c_str(), parallel_s,
      100.0 * baseline_s / parallel_s);
}

// --- fig6 shuffle micro, small scale ---

void RunShuffleMicro(std::vector<Record>* out) {
  bench::Banner(
      "Figure 6 smoke: shuffle micro (4000 x 512B, 32 parts), "
      "pipeline off/on");
  constexpr uint64_t kPairs = 4000;
  constexpr uint64_t kValueBytes = 512;
  constexpr int kPartitions = 32;
  constexpr double kRemoteRatio = 0.5;
  struct Arm {
    const char* config;
    bool use_m3r;
    const char* pipeline;  // nullptr = not an M3R knob run (Hadoop)
  };
  const Arm arms[] = {
      {"hadoop", false, nullptr},
      {"m3r pipeline=off", true, "off"},
      {"m3r pipeline=on", true, "on"},
  };
  bench::Table table({"m3r", "pipelined", "wall_s", "sim_s", "wire_kb"});
  int64_t reference_records = -1;
  double sim_off = 0, sim_on = 0;
  for (const Arm& arm : arms) {
    auto fs = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateMicroInput(*fs, "/micro/in", kPairs,
                                               kValueBytes, kPartitions, 42,
                                               /*hadoop_placement=*/true));
    std::unique_ptr<api::Engine> engine;
    if (arm.use_m3r) {
      engine = std::make_unique<engine::M3REngine>(fs, bench::M3ROpts());
    } else {
      engine =
          std::make_unique<hadoop::HadoopEngine>(fs, bench::HadoopOpts());
    }
    api::JobConf job = workloads::MakeMicroJob("/micro/in", "/micro/out",
                                               kPartitions, kRemoteRatio, 1);
    const bool pipelined =
        arm.pipeline != nullptr && std::string(arm.pipeline) == "on";
    if (arm.pipeline != nullptr) {
      // "off" is the barrier exchange (threshold 0: nothing ships before
      // the barrier); "on" is a threshold small enough that every lane
      // streams several runs at this scale — the overlap the figure is
      // about.
      job.Set(api::conf::kShuffleFlushBytes, pipelined ? "16384" : "0");
    }
    api::JobResult result;
    double wall = WallSeconds([&] { result = engine->Submit(job); });
    M3R_CHECK(result.ok()) << result.status.ToString();
    Record r;
    r.bench = "fig6_shuffle_micro";
    r.config = std::string(arm.config) +
               " pairs=4000 value=512 partitions=32 remote=0.5";
    r.wall_seconds = wall;
    r.sim_seconds = result.sim_seconds;
    if (result.metrics.count("shuffle_wire_bytes")) {
      r.wire_bytes = result.metrics.at("shuffle_wire_bytes");
    }
    int64_t reduce_records =
        Counter(result, api::counters::kReduceOutputRecords);
    if (reference_records < 0) reference_records = reduce_records;
    M3R_CHECK(reduce_records == reference_records &&
              reference_records == static_cast<int64_t>(kPairs))
        << arm.config << ": disagrees on shuffle micro output";
    r.counters = {
        {"map_output_records",
         Counter(result, api::counters::kMapOutputRecords)},
        {"reduce_output_records", reduce_records},
    };
    AddShuffleMetrics(result, &r);
    if (arm.pipeline != nullptr) {
      (pipelined ? sim_on : sim_off) = r.sim_seconds;
      if (pipelined) {
        M3R_CHECK(result.metrics.at("shuffle_runs_shipped") > 0)
            << "pipelined arm shipped no runs";
      }
    }
    table.Row({arm.use_m3r ? 1.0 : 0.0, pipelined ? 1.0 : 0.0, wall,
               r.sim_seconds, r.wire_bytes / 1024.0});
    out->push_back(std::move(r));
  }
  M3R_CHECK(sim_on < sim_off)
      << "pipelined shuffle must beat the barrier batch: on=" << sim_on
      << " off=" << sim_off;
  std::printf("pipelined sim %.3fs vs barrier %.3fs (%.1f%% faster)\n",
              sim_on, sim_off, 100.0 * (1.0 - sim_on / sim_off));
}

// --- Overflow config: partition budget below the working set ---

/// All decoded (key, value) rows of every part file under `dir`, sorted —
/// sequence files carry per-writer sync markers, so byte-level comparison
/// goes through the records.
std::vector<std::string> SortedSequenceRecords(dfs::FileSystem& fs,
                                               const std::string& dir) {
  std::vector<std::string> rows;
  auto files = fs.ListStatus(dir);
  M3R_CHECK(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory || f.path.find("part-") == std::string::npos) {
      continue;
    }
    auto pairs = api::ReadSequenceFile(fs, f.path);
    M3R_CHECK(pairs.ok()) << pairs.status().ToString();
    for (const auto& [k, v] : *pairs) {
      rows.push_back(k->ToString() + "\x1f" + v->ToString());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// All-remote micro shuffle whose per-partition run bytes are several times
/// m3r.shuffle.partition.budget.mb: the barrier batch holds the whole
/// working set resident, the budgeted pipelined run cannot — whole runs
/// overflow through the checkpoint spill and merge back lazily at reduce,
/// with identical records out.
void RunShuffleOverflow(std::vector<Record>* out) {
  bench::Banner(
      "Overflow: 8000 x 1KB all-remote into 4 partitions, budget 1MB");
  constexpr uint64_t kPairs = 8000;
  constexpr uint64_t kValueBytes = 1024;
  constexpr int kPartitions = 4;
  bench::Table table({"pipelined", "budget_mb", "sim_s", "spills"});
  std::vector<std::string> reference;
  for (const char* pipeline : {"off", "on"}) {
    const bool pipelined = std::string(pipeline) == "on";
    auto fs = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateMicroInput(*fs, "/micro/in", kPairs,
                                               kValueBytes, kPartitions, 42,
                                               /*hadoop_placement=*/false));
    engine::M3REngine engine(fs, bench::M3ROpts());
    api::JobConf job = workloads::MakeMicroJob("/micro/in", "/micro/out",
                                               kPartitions, 1.0, 1);
    job.Set(api::conf::kShuffleFlushBytes, pipelined ? "16384" : "0");
    if (pipelined) job.Set(api::conf::kShufflePartitionBudgetMb, "1");
    api::JobResult result;
    double wall = WallSeconds([&] { result = engine.Submit(job); });
    M3R_CHECK(result.ok()) << result.status.ToString();

    auto rows = SortedSequenceRecords(*engine.Fs(), "/micro/out");
    if (reference.empty()) {
      reference = rows;
      M3R_CHECK(reference.size() == kPairs);
    } else {
      M3R_CHECK(rows == reference)
          << "overflow run diverged from the barrier baseline";
    }

    Record r;
    r.bench = "shuffle_overflow";
    r.config = std::string("m3r pipeline=") + pipeline +
               (pipelined ? " budget=1MB" : "") +
               " pairs=8000 value=1024 partitions=4 remote=1.0";
    r.wall_seconds = wall;
    r.sim_seconds = result.sim_seconds;
    if (result.metrics.count("shuffle_wire_bytes")) {
      r.wire_bytes = result.metrics.at("shuffle_wire_bytes");
    }
    r.counters = {
        {"reduce_output_records",
         Counter(result, api::counters::kReduceOutputRecords)},
    };
    AddShuffleMetrics(result, &r);
    int64_t spills = 0;
    if (pipelined) {
      spills = result.metrics.at("shuffle_overflow_spills");
      M3R_CHECK(spills > 0) << "budget never bit: no overflow spills";
      M3R_CHECK(result.metrics.at("shuffle_max_partition_run_bytes") >
                (int64_t{1} << 20))
          << "working set fit the budget; config too small";
    }
    table.Row({pipelined ? 1.0 : 0.0, pipelined ? 1.0 : 0.0,
               r.sim_seconds, static_cast<double>(spills)});
    out->push_back(std::move(r));
  }
  std::printf("budgeted pipelined run spilled and matched the barrier "
              "baseline record-for-record\n");
}

// --- fig8 WordCount, small scale, hash-combine off/on + repair mode ---

std::vector<std::string> SortedOutputLines(dfs::FileSystem& fs,
                                           const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  M3R_CHECK(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory || f.path.find("part-") == std::string::npos) {
      continue;
    }
    auto content = fs.ReadFile(f.path);
    M3R_CHECK(content.ok());
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

/// 4x2 cluster with 16KB blocks: 2MiB of text = ~128 splits, so each
/// place's single worker lane runs ~32 map tasks — the scope the
/// lane-persistent hash table folds across.
void RunWordCount(std::vector<Record>* out) {
  bench::Banner(
      "Figure 8 smoke: WordCount 2MiB, hash-combine off/on (+repair)");
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  spec.data_scale = bench::kDataScale;
  constexpr int kReducers = 16;

  struct Run {
    const char* config;
    bool use_m3r;
    bool hash_combine;
    bool repair;
    const char* pipeline = nullptr;  // nullptr = engine default
  };
  const Run runs[] = {
      {"hadoop combine=off", false, false, false},
      {"hadoop combine=on", false, true, false},
      {"m3r combine=off", true, false, false},
      {"m3r combine=on pipeline=off", true, true, false, "off"},
      {"m3r combine=on", true, true, false, "on"},
      {"hadoop combine=on repair+corrupt.spill", false, true, true},
      {"m3r combine=on repair+corrupt.channel.frame", true, true, true},
  };
  bench::Table table({"m3r", "combine", "repair", "sim_s", "wire_kb"});
  std::vector<std::string> reference;
  int64_t wire_off = 0, wire_on = 0;
  double sim_barrier = 0, sim_pipelined = 0;
  for (const Run& run : runs) {
    auto fs = dfs::MakeSimDfs(spec.num_nodes, 16 * 1024);
    M3R_CHECK_OK(
        workloads::GenerateText(*fs, "/text", 2 * 1024 * 1024, 4, 7));
    std::unique_ptr<api::Engine> engine;
    if (run.use_m3r) {
      engine = std::make_unique<engine::M3REngine>(
          fs, engine::M3REngineOptions{spec});
    } else {
      engine = std::make_unique<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{spec, 0});
    }
    api::JobConf job = workloads::MakeWordCountJob("/text", "/out",
                                                   kReducers, true);
    job.Set(api::conf::kPlaceWorkers, "1");
    if (run.hash_combine) job.Set(api::conf::kMapHashCombine, "true");
    if (run.pipeline != nullptr) {
      job.Set(api::conf::kShuffleFlushBytes,
              std::string(run.pipeline) == "on" ? "16384" : "0");
    }
    if (run.repair) {
      job.Set(api::conf::kIntegrityMode, "repair");
      job.Set("m3r.fault.seed", "9");
      const char* site =
          run.use_m3r ? "corrupt.channel.frame" : "corrupt.spill";
      job.Set(std::string("m3r.fault.") + site + ".prob", "1.0");
      job.Set(std::string("m3r.fault.") + site + ".limit", "1");
    }
    api::JobResult result;
    double wall = WallSeconds([&] { result = engine->Submit(job); });
    M3R_CHECK(result.ok()) << run.config << ": "
                           << result.status.ToString();

    std::vector<std::string> lines = SortedOutputLines(*fs, "/out");
    if (reference.empty()) {
      reference = lines;
      M3R_CHECK(!reference.empty());
    } else {
      M3R_CHECK(lines == reference)
          << run.config << ": output differs from baseline";
    }

    Record r;
    r.bench = "fig8_wordcount";
    r.config = std::string(run.config) +
               " cluster=4x2 text=2MiB reducers=16 workers=1";
    r.wall_seconds = wall;
    r.sim_seconds = result.sim_seconds;
    if (result.metrics.count("shuffle_wire_bytes")) {
      r.wire_bytes = result.metrics.at("shuffle_wire_bytes");
    }
    r.counters = {
        {"map_output_records",
         Counter(result, api::counters::kMapOutputRecords)},
        {"combine_input_records",
         Counter(result, api::counters::kCombineInputRecords)},
        {"combine_output_records",
         Counter(result, api::counters::kCombineOutputRecords)},
        {"reduce_output_records",
         Counter(result, api::counters::kReduceOutputRecords)},
    };
    if (result.metrics.count("integrity_repaired")) {
      r.counters.emplace_back("integrity_repaired",
                              result.metrics.at("integrity_repaired"));
      M3R_CHECK(!run.repair ||
                result.metrics.at("integrity_repaired") >= 1)
          << run.config << ": no repair happened";
    }
    AddShuffleMetrics(result, &r);
    if (run.use_m3r && !run.repair) {
      (run.hash_combine ? wire_on : wire_off) = r.wire_bytes;
    }
    if (run.pipeline != nullptr) {
      (std::string(run.pipeline) == "on" ? sim_pipelined : sim_barrier) =
          r.sim_seconds;
    }
    table.Row({run.use_m3r ? 1.0 : 0.0, run.hash_combine ? 1.0 : 0.0,
               run.repair ? 1.0 : 0.0, r.sim_seconds,
               r.wire_bytes / 1024.0});
    out->push_back(std::move(r));
  }
  M3R_CHECK(wire_off > 0 && wire_on > 0);
  M3R_CHECK(sim_pipelined < sim_barrier)
      << "pipelined WordCount must beat the barrier batch: on="
      << sim_pipelined << " off=" << sim_barrier;
  std::printf("all seven runs byte-identical; m3r shuffle wire bytes: "
              "off=%lld on=%lld (cut %.1f%%); pipelined sim %.3fs vs "
              "barrier %.3fs\n",
              static_cast<long long>(wire_off),
              static_cast<long long>(wire_on),
              100.0 * (1.0 - double(wire_on) / double(wire_off)),
              sim_pipelined, sim_barrier);
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
  std::printf("M3R perf trajectory — sort kernel + fig6 + fig8 smoke\n");

  std::vector<m3r::bench::Record> shuffle_records;
  m3r::RunSortMicro(&shuffle_records);
  m3r::RunShuffleMicro(&shuffle_records);
  m3r::RunShuffleOverflow(&shuffle_records);
  std::vector<m3r::bench::Record> wordcount_records;
  m3r::RunWordCount(&wordcount_records);

  const std::string shuffle_path =
      out_dir + "/BENCH_shuffle" + suffix + ".json";
  const std::string wordcount_path =
      out_dir + "/BENCH_wordcount" + suffix + ".json";
  auto emit = [](const std::string& path,
                 const std::vector<m3r::bench::Record>& records) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << m3r::bench::ToJson(records);
    out.close();
    if (!m3r::ValidateJsonFile(path, records.size())) {
      std::fprintf(stderr, "emitted invalid JSON: %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
    return true;
  };
  if (!emit(shuffle_path, shuffle_records)) return 1;
  if (!emit(wordcount_path, wordcount_records)) return 1;
  return 0;
}

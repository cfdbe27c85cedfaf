// Mid-job place-failure recovery bench (DESIGN.md §14): what does a place
// crash halfway through the map phase cost under bounded task replay
// (the default crash budget) versus the pre-recovery contract of failing
// the whole job and resubmitting from scratch
// (m3r.place.recovery.max.crashes=0)? Three arms, each on a fresh engine + DFS so
// cache state and the scripted crash arm identically:
//
//   baseline   crash-free WordCount — the floor.
//   recovered  place 1 dies before its 5th of 8 map tasks; replay heals
//              the lost inputs, re-homes the dead partitions, and reruns
//              only the lost tasks. Makespan = baseline + recovery span.
//   retried    same crash with recovery off — the job fails with a typed
//              retriable error and a pristine resubmission reruns
//              everything. Makespan = failed partial attempt + full rerun.
//
// The bench hard-fails unless recovered sits strictly between baseline and
// retried and all three arms emit byte-identical output. Each arm is one
// JSON record {bench, config, wall_seconds, sim_seconds, wire_bytes,
// counters} in BENCH_recovery.json; CI runs it as a smoke, the committed
// file records how the gap moves PR over PR.
//
//   bench_recovery [--out-dir DIR] [--suffix S]
//
// writes DIR/BENCH_recovery<S>.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/job_conf.h"
#include "bench_util.h"
#include "dfs/local_fs.h"
#include "m3r/m3r_engine.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

// 512 KiB over 16 KiB DFS blocks = 32 splits, 8 map tasks per place on a
// 4-place cluster. The scripted crash fires before place 1's 5th task:
// half its work is done, half is lost — the honest midpoint.
constexpr int64_t kInputBytes = 512 * 1024;
constexpr int64_t kBlockBytes = 16 * 1024;
constexpr int kPlaces = 4;
constexpr int kReducers = 4;
constexpr char kCrashScript[] = "1:4";

double WallSeconds(const std::function<void()>& body) {
  auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

using bench::Record;

/// One arm's isolated world: its own DFS with the shared corpus and its
/// own long-lived engine (cold caches, fresh membership view, the
/// scripted crash armed on planner state no other arm has perturbed).
struct Arm {
  std::shared_ptr<dfs::FileSystem> fs;
  std::unique_ptr<engine::M3REngine> engine;
};

Arm MakeArm() {
  Arm arm;
  arm.fs = dfs::MakeSimDfs(kPlaces, kBlockBytes);
  M3R_CHECK_OK(workloads::GenerateText(*arm.fs, "/in", kInputBytes, 2, 3));
  sim::ClusterSpec spec;
  spec.num_nodes = kPlaces;
  spec.slots_per_node = 2;
  engine::M3REngineOptions options;
  options.cluster = spec;
  arm.engine = std::make_unique<engine::M3REngine>(arm.fs, options);
  return arm;
}

/// Reads every part file under `dir` and returns sorted lines.
std::vector<std::string> ReadOutputLines(dfs::FileSystem& fs,
                                         const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  M3R_CHECK(files.ok()) << files.status().ToString();
  for (const auto& f : *files) {
    if (f.is_directory) continue;
    if (f.path.find("part-") == std::string::npos) continue;
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

int64_t Metric(const api::JobResult& r, const std::string& key) {
  auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0 : it->second;
}

void RunRecoveryVsRetry(std::vector<Record>* out) {
  bench::Banner(
      "Place-crash recovery vs whole-job retry: WordCount 512KiB, crash at "
      "50% of the dead place's map tasks");

  // Arm 1: the crash-free floor.
  Arm base = MakeArm();
  api::JobConf bj = workloads::MakeWordCountJob("/in", "/out", kReducers,
                                                /*immutable_output=*/true);
  api::JobResult br;
  double base_wall = WallSeconds([&] { br = base.engine->Submit(bj); });
  M3R_CHECK(br.ok()) << br.status.ToString();
  const std::vector<std::string> truth = ReadOutputLines(*base.fs, "/out");
  M3R_CHECK(!truth.empty());
  const int64_t map_tasks = Metric(br, "map_tasks");

  // Arm 2: scripted mid-map crash, default bounded replay.
  Arm rec = MakeArm();
  api::JobConf rj = workloads::MakeWordCountJob("/in", "/out", kReducers,
                                                /*immutable_output=*/true);
  rj.Set(api::conf::kPlaceCrashAt, kCrashScript);
  api::JobResult rr;
  double rec_wall = WallSeconds([&] { rr = rec.engine->Submit(rj); });
  M3R_CHECK(rr.ok()) << "replay recovery failed: " << rr.status.ToString();
  M3R_CHECK(ReadOutputLines(*rec.fs, "/out") == truth)
      << "recovered output diverged from the crash-free run";
  const int64_t recovered_tasks = Metric(rr, "recovered_map_tasks");
  M3R_CHECK(Metric(rr, "place_crashes") == 1);
  M3R_CHECK(recovered_tasks > 0 && recovered_tasks < map_tasks)
      << "replay reran " << recovered_tasks << " of " << map_tasks
      << " tasks — expected only the dead place's lost work";

  // Arm 3: same crash with recovery off — the failed partial attempt plus
  // a pristine resubmission on the same engine (survivor caches stay warm,
  // which only flatters the retry arm).
  Arm ret = MakeArm();
  api::JobConf fj = workloads::MakeWordCountJob("/in", "/out", kReducers,
                                                /*immutable_output=*/true);
  fj.Set(api::conf::kPlaceCrashAt, kCrashScript);
  fj.Set(api::conf::kPlaceRecoveryMaxCrashes, "0");
  api::JobResult fr;
  double retry_wall = WallSeconds([&] { fr = ret.engine->Submit(fj); });
  M3R_CHECK(!fr.ok()) << "recovery=off arm was expected to fail";
  M3R_CHECK(fr.status.IsRetriable()) << fr.status.ToString();
  api::JobConf pj = workloads::MakeWordCountJob("/in", "/out", kReducers,
                                                /*immutable_output=*/true);
  api::JobResult pr;
  retry_wall += WallSeconds([&] { pr = ret.engine->Submit(pj); });
  M3R_CHECK(pr.ok()) << pr.status.ToString();
  M3R_CHECK(ReadOutputLines(*ret.fs, "/out") == truth)
      << "retried output diverged from the crash-free run";
  const double retry_sim = fr.sim_seconds + pr.sim_seconds;

  // The point of the whole subsystem: replaying only the lost work beats
  // throwing away the surviving places' finished tasks.
  M3R_CHECK(rr.sim_seconds > br.sim_seconds)
      << "recovery charged nothing to the makespan";
  M3R_CHECK(rr.sim_seconds < retry_sim)
      << "bounded replay (" << rr.sim_seconds
      << "s) did not beat whole-job retry (" << retry_sim << "s)";

  bench::Table table({"arm", "sim_s", "map_tasks_run", "place_crashes"});
  table.Row({0.0, br.sim_seconds, static_cast<double>(map_tasks), 0.0});
  table.Row({1.0, rr.sim_seconds,
             static_cast<double>(map_tasks + recovered_tasks), 1.0});
  table.Row({2.0, retry_sim, static_cast<double>(2 * map_tasks), 1.0});
  std::printf("\nrecovery makespan overhead: +%.1f%% vs baseline; "
              "whole-job retry: +%.1f%%\n",
              100.0 * (rr.sim_seconds / br.sim_seconds - 1.0),
              100.0 * (retry_sim / br.sim_seconds - 1.0));

  Record b;
  b.bench = "recovery";
  b.config = "m3r wordcount 512KiB crash-free baseline";
  b.wall_seconds = base_wall;
  b.sim_seconds = br.sim_seconds;
  b.counters = {{"map_tasks", map_tasks}, {"place_crashes", 0}};
  out->push_back(std::move(b));

  Record r;
  r.bench = "recovery";
  r.config = "m3r wordcount 512KiB crash@50%map recovery=replay";
  r.wall_seconds = rec_wall;
  r.sim_seconds = rr.sim_seconds;
  r.counters = {
      {"map_tasks", map_tasks},
      {"place_crashes", Metric(rr, "place_crashes")},
      {"recovered_map_tasks", recovered_tasks},
      {"recovery_millis", Metric(rr, "recovery_millis")},
      {"cache_evicted_by_crash_blocks",
       Metric(rr, "cache_evicted_by_crash_blocks")},
      {"partition_map_version", Metric(rr, "partition_map_version")},
  };
  out->push_back(std::move(r));

  Record t;
  t.bench = "recovery";
  t.config = "m3r wordcount 512KiB crash@50%map recovery=off + resubmit";
  t.wall_seconds = retry_wall;
  t.sim_seconds = retry_sim;
  t.counters = {
      {"map_tasks", map_tasks},
      {"place_crashes", Metric(fr, "place_crashes")},
      {"failed_attempt_sim_millis",
       static_cast<int64_t>(1000 * fr.sim_seconds)},
      {"resubmit_sim_millis", static_cast<int64_t>(1000 * pr.sim_seconds)},
  };
  out->push_back(std::move(t));
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
  m3r::RunRecoveryVsRetry(&records);
  const std::string path = out_dir + "/BENCH_recovery" + suffix + ".json";
  std::ofstream outf(path);
  outf << m3r::bench::ToJson(records);
  outf.close();
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
  return 0;
}

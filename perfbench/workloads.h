#ifndef M3R_PERFBENCH_WORKLOADS_H_
#define M3R_PERFBENCH_WORKLOADS_H_

// The benchmark's three job-sequence workloads. Each one generates its
// inputs from the seed, submits its jobs through api::Engine::Submit, and
// checks every output against an oracle computed locally from the inputs.
// A mismatch is counted as a failed job, never asserted.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/job_conf.h"
#include "dfs/file_system.h"
#include "m3r/m3r_engine.h"
#include "tracing.h"

namespace m3r::perfbench {

/// Worker strands per place, set on the engine and on every job.
inline constexpr int kWorkersPerPlace = 1;

/// The fixed cluster every workload runs on: the paper's 20 nodes x 8
/// slots at data_scale 256 on `host_threads` executor threads, over an
/// HDFS-like DFS with 64 KiB blocks and replication 3.
engine::M3REngineOptions EngineOptions(int host_threads);
std::shared_ptr<dfs::FileSystem> MakeBaseDfs();

/// One rep's figures: end-to-end times plus sums over every JobResult.
struct RepStats {
  double setup_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  int attempted = 0;
  int failed = 0;
  /// JobResult metrics, counters and sim breakdown, summed over jobs
  /// (peaks take the max). Keys are the per-layer metric names.
  std::map<std::string, double> sums;
  LayerTotals layers;  ///< traced reps only
};

/// Submits one workload's jobs, times them on the host (wall and process
/// CPU), and folds each JobResult into RepStats.
class JobRunner {
 public:
  JobRunner(engine::M3REngine& engine, RepStats* stats, Tracer* tracer);

  /// Runs one job; false when it returned a non-OK status.
  bool Submit(api::JobConf job);
  /// Books the oracle's verdict on the last successful job.
  void Verdict(bool correct);
  /// Books `n` jobs that could not be attempted because an earlier job of
  /// their chain failed.
  void Skipped(int n);

  engine::M3REngine& engine() { return engine_; }
  /// Every m3r.* knob the submitted jobs carried, for the config record.
  const std::map<std::string, std::string>& knobs() const { return knobs_; }

 private:
  engine::M3REngine& engine_;
  RepStats* stats_;
  Tracer* tracer_;
  std::map<std::string, std::string> knobs_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Writes the inputs into `fs` (timed as set-up).
  virtual void Generate(dfs::FileSystem& fs) = 0;
  /// Builds the oracle from the generated inputs in `fs`, once: every rep
  /// of a process generates the same inputs from the same seed.
  virtual void PrepareOracle(dfs::FileSystem& fs) = 0;
  /// Runs the job sequence. `base` is the engine's base DFS (for sweeping
  /// checkpoint copies of superseded temp outputs).
  virtual void Run(JobRunner& runner, dfs::FileSystem& base) = 0;
  /// Input sizes and job counts, as "key": value JSON members.
  virtual std::string DescribeJson() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_WORKLOADS_H_

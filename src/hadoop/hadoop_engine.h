#ifndef M3R_HADOOP_HADOOP_ENGINE_H_
#define M3R_HADOOP_HADOOP_ENGINE_H_

#include <memory>
#include <string>

#include "api/engine.h"
#include "dfs/file_system.h"
#include "sim/cost_model.h"

namespace m3r::hadoop {

struct HadoopEngineOptions {
  sim::ClusterSpec cluster;
  /// Host threads used to execute tasks for real (0 = hardware threads).
  /// Never affects simulated time, only wall-clock.
  int host_threads = 0;
};

/// The baseline: a from-scratch reimplementation of the Hadoop MapReduce
/// engine's execution flow (paper §3.1) against the simulated cluster.
///
/// Per job: jobtracker submit handshake and job-file writes, input splits,
/// map tasks dispatched by heartbeat to slot-limited task trackers with
/// delay scheduling for data locality, per-task JVM start cost, map-side
/// serialize/sort/combine/spill to local disk, shuffle fetch over disk and
/// network, reduce-side out-of-core merge, and replicated DFS output
/// through the commit protocol. Map and reduce task attempts share one
/// retry, tracker-blacklist and speculative-backup path. Nothing is kept
/// in memory between jobs — each job in a sequence re-reads its input
/// from the DFS, which is exactly the overhead M3R eliminates.
class HadoopEngine : public api::Engine {
 public:
  explicit HadoopEngine(std::shared_ptr<dfs::FileSystem> fs,
                        HadoopEngineOptions options = {});

  std::string Name() const override { return "hadoop"; }
  api::JobResult Submit(const api::JobConf& conf) override;

  dfs::FileSystem& Fs() { return *fs_; }
  const sim::ClusterSpec& cluster() const { return options_.cluster; }

 private:
  /// One submission's state and phases (hadoop_engine.cc).
  class JobRun;

  std::shared_ptr<dfs::FileSystem> fs_;
  HadoopEngineOptions options_;
  sim::CostModel cost_;
  int job_counter_ = 0;
};

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_HADOOP_ENGINE_H_

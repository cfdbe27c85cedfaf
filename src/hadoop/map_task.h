#ifndef M3R_HADOOP_MAP_TASK_H_
#define M3R_HADOOP_MAP_TASK_H_

#include <string>
#include <vector>

#include "api/counters.h"
#include "api/input_format.h"
#include "api/job_conf.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/status.h"
#include "dfs/file_system.h"
#include "sim/cost_model.h"

namespace m3r::hadoop {

/// Everything a completed map task leaves behind for the engine: one merged
/// sorted segment per reduce partition (the "map output file"), the byte
/// counts and counted CPU work needed for cost charging, and the task's
/// counters.
struct MapTaskResult {
  Status status;
  std::vector<std::string> partition_segments;
  /// CRC32C per partition segment (the map-output-file checksums reducers
  /// verify at fetch). Empty when integrity is off.
  std::vector<uint32_t> segment_crcs;
  uint64_t input_bytes = 0;
  /// Bytes written to local disk across all spills.
  uint64_t spill_write_bytes = 0;
  /// Bytes re-read (and re-written) by the map-side merge of spills.
  uint64_t merge_bytes = 0;
  uint64_t output_bytes = 0;
  /// The task's own CPU work: its split, the emits into the spill buffer
  /// (or the job output when map-only) and the spills' combines.
  sim::CpuWork work;
  /// The per-spill sorts; the engine charges them to the `sort` phase
  /// rather than the task's own compute.
  sim::CpuWork sort;
  api::Counters counters;
};

/// Executes one Hadoop map task for real: opens the split's reader, runs
/// the job's mapper (via the default object-reusing MapRunner or a custom
/// MapRunnable), sorts/combines/spills through MapOutputBuffer, and merges
/// the spills into one segment per partition.
///
/// For map-only jobs (zero reducers), output goes straight to the job's
/// OutputFormat through the commit protocol, keyed by `task_id` and
/// `attempt` (retried attempts get fresh attempt directories).
///
/// `fault` (optional) is consulted at the "hadoop.map" site keyed by
/// "<task>/<attempt>" after the user code has run — modeling a task that
/// did its work and then died before committing.
///
/// `integrity` (optional) stamps every spill segment at write, re-verifies
/// each one (under the "corrupt.spill" site, keys
/// "m<task>/a<attempt>/s<spill>/p<partition>") when the map-side merge
/// re-reads it, and stamps the final per-partition map output segments for
/// the reduce-side fetch to verify.
MapTaskResult RunHadoopMapTask(const api::JobConf& conf, dfs::FileSystem& fs,
                               const api::InputSplit& split, int task_id,
                               int num_reduce, int node, int attempt = 0,
                               FaultInjector* fault = nullptr,
                               const IntegrityContext* integrity = nullptr);

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_MAP_TASK_H_

#ifndef M3R_HADOOP_REDUCE_TASK_H_
#define M3R_HADOOP_REDUCE_TASK_H_

#include <string>
#include <vector>

#include "api/counters.h"
#include "api/job_conf.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/status.h"
#include "dfs/file_system.h"
#include "sim/cost_model.h"

namespace m3r::hadoop {

struct ReduceTaskResult {
  Status status;
  /// Bytes fetched from each map task (index-aligned with the inputs).
  uint64_t shuffle_bytes = 0;
  /// Bytes written+read by the reduce-side out-of-core merge.
  uint64_t merge_bytes = 0;
  /// Bytes written to the DFS output (before replication).
  uint64_t output_bytes = 0;
  /// The fetched segments' merge, the reducer's input and its output.
  sim::CpuWork work;
  api::Counters counters;
};

/// Executes one Hadoop reduce task for real: merges the fetched map-output
/// segments, streams groups through the job's reducer, and writes the
/// partition's output file through the commit protocol.
/// `segments[i]` is map task i's segment for this partition.
///
/// `fault` (optional) is consulted at the "hadoop.reduce" site keyed by
/// "<partition>/<attempt>" after the reducer has run, before task commit.
///
/// `segment_crcs` (optional; index-aligned with `segments` when non-empty)
/// carries the map-side stamps; each fetched segment is then verified at
/// the "corrupt.spill" site, keys "m<i>/p<partition>/a<attempt>" — the
/// shuffle-fetch hop where Hadoop's IFile checksums catch corrupt map
/// output. In repair mode a mismatch falls back to the mapper's pristine
/// copy (a re-fetch); otherwise the task fails with DataLoss and the
/// re-attempt draws fresh corruption coins.
ReduceTaskResult RunHadoopReduceTask(
    const api::JobConf& conf, dfs::FileSystem& fs, int partition,
    const std::vector<const std::string*>& segments, int node,
    int attempt = 0, FaultInjector* fault = nullptr,
    const std::vector<uint32_t>& segment_crcs = {},
    const IntegrityContext* integrity = nullptr);

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_REDUCE_TASK_H_

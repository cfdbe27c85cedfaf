#ifndef M3R_API_METRICS_H_
#define M3R_API_METRICS_H_

#include <cstdint>
#include <span>

#include "api/engine.h"

namespace m3r {
struct IntegrityContext;
}

namespace m3r::api {

/// Every job metric either engine or JobServer reports, by its catalogue
/// row. Names live only in the table (metrics.cc); a write site names a
/// metric through one of these constants.
namespace metric {
enum Id : int {
  // Plan and tasks.
  kMapTasks, kReduceTasks, kPlaceWorkers, kCacheHitSplits, kCacheMissSplits,
  kDataLocalMaps,
  // Bytes through the DFS and the local disks.
  kHdfsReadBytes, kHdfsWriteBytes, kSpillWriteBytes, kMapMergeBytes,
  kReduceMergeBytes, kDistributedCacheBytes,
  // Shuffle.
  kShuffleBytes, kShuffleLocalPairs, kShuffleRemotePairs, kShuffleWireBytes,
  kDedupObjects, kDedupSavedBytes, kAliasedPairs, kClonedPairs,
  kShuffleRunsShipped, kShuffleOverflowSpills,
  kShufflePoolPeakBytes, kShuffleMaxPartitionRunBytes, kTimeToFirstReduceMs,
  // Output reuse and checkpoint restore.
  kReusedFromCache, kRecoveredFromCheckpoint, kRecoveredFiles,
  kRecoveredBytes,
  // Task retries and injected faults.
  kMapTaskFailures, kReduceTaskFailures, kBlacklistedNodes,
  kSpeculativeMapTasks, kSpeculativeReduceTasks, kSpeculativeMapWins,
  kSpeculativeReduceWins, kInjectedFaults,
  // Place-failure recovery.
  kPlaceCrashes, kCacheEvictedByCrashBlocks, kRecoveredMapTasks,
  kRecoveryMillis, kMembershipEpoch, kPartitionMapVersion,
  // End-to-end integrity.
  kIntegrityDetected, kIntegrityRepaired, kIntegrityBytesChecksummed,
  // Memory governance.
  kCacheBytesResident, kCacheEvictions, kCacheEvictedBytes,
  kCacheSpilledEvictions, kCacheRejectedFills, kCacheForcedFills,
  kCacheAbortedEvictions, kCacheLeasesActive, kCacheEvictorInflight,
  kMemoryBudgetBytes, kMemoryPeakBytes,
  // Two-tier cache.
  kL2Hits, kL2Misses, kL2Demotions, kL2RemoteBytes, kL2RingHeals,
  kL2OverflowFills, kL2BytesResident,
  // Serving front end.
  kSchedWaitMs, kSchedAttempts, kSchedPreemptions, kSchedWatchdogKills,
  kNumIds
};
}  // namespace metric

/// The one declared catalogue of job metrics (DESIGN.md §18): one row per
/// `JobResult::metrics` name, with its unit, how it is written, and the
/// counter that mirrors it, if any. Writing through Add and Set keeps a
/// metric and its mirror equal by construction.
namespace metrics {

enum class Unit { kCount, kBytes, kMs, kFlag };

enum class Kind {
  kSum,  ///< accumulated over tasks or recovery rounds with Add
  kSet,  ///< written once with Set
};

struct Metric {
  metric::Id id;
  const char* name;
  Unit unit;
  Kind kind;
  const char* group = nullptr;  ///< the counter mirror, if any
  const char* counter = nullptr;
};

/// Every row, in metric::Id order.
std::span<const Metric> Table();

/// Adds `delta` to a kSum metric, creating it at 0, and to its mirror. A
/// zero delta leaves the mirror untouched, so a counter appears only once
/// something flowed.
void Add(JobResult* result, metric::Id id, int64_t delta);
/// Sets a kSet metric and moves its mirror to the same value.
void Set(JobResult* result, metric::Id id, int64_t value);
/// Mid-job: moves only the mirror of a kSet row to `value`, so live
/// counters track a value whose metric is Set at job end. No-op for a row
/// without a mirror. Callers serialize calls on the same counters.
void SetMirror(Counters* counters, metric::Id id, int64_t value);

/// The tallies of an enabled integrity context; nothing when `integrity`
/// is null or off.
void SetIntegrity(JobResult* result, const IntegrityContext* integrity);

}  // namespace metrics
}  // namespace m3r::api

#endif  // M3R_API_METRICS_H_

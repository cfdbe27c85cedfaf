#include "api/metrics.h"

#include <string>

#include "common/integrity.h"
#include "common/logging.h"

namespace m3r::api::metrics {
namespace {

namespace c = counters;
using enum Unit;
constexpr Kind kSum = Kind::kSum;
constexpr Kind kSet = Kind::kSet;

/// Each name is written here and nowhere else. The README table "Canonical
/// job metric names" gives each row's meaning.
constexpr Metric kTable[] = {
    {metric::kMapTasks, "map_tasks", kCount, kSet},
    {metric::kReduceTasks, "reduce_tasks", kCount, kSet},
    {metric::kPlaceWorkers, "place_workers", kCount, kSet},
    {metric::kCacheHitSplits, "cache_hit_splits", kCount, kSet, c::kM3rGroup,
     c::kCacheHits},
    {metric::kCacheMissSplits, "cache_miss_splits", kCount, kSet,
     c::kM3rGroup, c::kCacheMisses},
    {metric::kDataLocalMaps, "data_local_maps", kCount, kSet},

    {metric::kHdfsReadBytes, "hdfs_read_bytes", kBytes, kSum, c::kFsGroup,
     c::kHdfsBytesRead},
    {metric::kHdfsWriteBytes, "hdfs_write_bytes", kBytes, kSum, c::kFsGroup,
     c::kHdfsBytesWritten},
    {metric::kSpillWriteBytes, "spill_write_bytes", kBytes, kSum},
    {metric::kMapMergeBytes, "map_merge_bytes", kBytes, kSum},
    {metric::kReduceMergeBytes, "reduce_merge_bytes", kBytes, kSum},
    {metric::kDistributedCacheBytes, "distributed_cache_bytes", kBytes, kSet},

    {metric::kShuffleBytes, "shuffle_bytes", kBytes, kSum},
    {metric::kShuffleLocalPairs, "shuffle_local_pairs", kCount, kSet,
     c::kM3rGroup, c::kLocalShufflePairs},
    {metric::kShuffleRemotePairs, "shuffle_remote_pairs", kCount, kSet,
     c::kM3rGroup, c::kRemoteShufflePairs},
    {metric::kShuffleWireBytes, "shuffle_wire_bytes", kBytes, kSet},
    {metric::kDedupObjects, "dedup_objects", kCount, kSet, c::kM3rGroup,
     c::kDedupedObjects},
    {metric::kDedupSavedBytes, "dedup_saved_bytes", kBytes, kSet,
     c::kM3rGroup, c::kDedupSavedBytes},
    {metric::kAliasedPairs, "aliased_pairs", kCount, kSet, c::kM3rGroup,
     c::kAliasedPairs},
    {metric::kClonedPairs, "cloned_pairs", kCount, kSet, c::kM3rGroup,
     c::kClonedPairs},
    {metric::kShuffleRunsShipped, "shuffle_runs_shipped", kCount, kSet,
     c::kM3rGroup, c::kShuffleRunsShipped},
    {metric::kShuffleOverflowSpills, "shuffle_overflow_spills", kCount, kSet,
     c::kM3rGroup, c::kShuffleOverflowSpills},
    {metric::kShufflePoolPeakBytes, "shuffle_pool_peak_bytes", kBytes, kSet},
    {metric::kShuffleMaxPartitionRunBytes, "shuffle_max_partition_run_bytes",
     kBytes, kSet},
    {metric::kTimeToFirstReduceMs, "time_to_first_reduce_ms", kMs, kSet},

    {metric::kReusedFromCache, "reused_from_cache", kFlag, kSet, c::kM3rGroup,
     c::kReusedFromCache},
    {metric::kRecoveredFromCheckpoint, "recovered_from_checkpoint", kFlag,
     kSet},
    {metric::kRecoveredFiles, "recovered_files", kCount, kSet},
    {metric::kRecoveredBytes, "recovered_bytes", kBytes, kSet},

    {metric::kMapTaskFailures, "map_task_failures", kCount, kSet},
    {metric::kReduceTaskFailures, "reduce_task_failures", kCount, kSet},
    {metric::kBlacklistedNodes, "blacklisted_nodes", kCount, kSet},
    {metric::kSpeculativeMapTasks, "speculative_map_tasks", kCount, kSet},
    {metric::kSpeculativeReduceTasks, "speculative_reduce_tasks", kCount,
     kSet},
    {metric::kSpeculativeMapWins, "speculative_map_wins", kCount, kSet},
    {metric::kSpeculativeReduceWins, "speculative_reduce_wins", kCount, kSet},
    {metric::kInjectedFaults, "injected_faults", kCount, kSet},

    {metric::kPlaceCrashes, "place_crashes", kCount, kSum, c::kM3rGroup,
     c::kPlaceCrashes},
    {metric::kCacheEvictedByCrashBlocks, "cache_evicted_by_crash_blocks",
     kCount, kSum, c::kM3rGroup, c::kCacheEvictedByCrashBlocks},
    {metric::kRecoveredMapTasks, "recovered_map_tasks", kCount, kSum,
     c::kM3rGroup, c::kRecoveredMapTasks},
    {metric::kRecoveryMillis, "recovery_millis", kMs, kSet, c::kM3rGroup,
     c::kRecoveryMillis},
    {metric::kMembershipEpoch, "membership_epoch", kCount, kSet},
    {metric::kPartitionMapVersion, "partition_map_version", kCount, kSet},

    {metric::kIntegrityDetected, "integrity_detected", kCount, kSet},
    {metric::kIntegrityRepaired, "integrity_repaired", kCount, kSet},
    {metric::kIntegrityBytesChecksummed, "integrity_bytes_checksummed", kBytes,
     kSet},

    {metric::kCacheBytesResident, "cache_bytes_resident", kBytes, kSet,
     c::kM3rGroup, c::kCacheBytesResident},
    {metric::kCacheEvictions, "cache_evictions", kCount, kSet, c::kM3rGroup,
     c::kCacheEvictions},
    {metric::kCacheEvictedBytes, "cache_evicted_bytes", kBytes, kSet,
     c::kM3rGroup, c::kCacheEvictedBytes},
    {metric::kCacheSpilledEvictions, "cache_spilled_evictions", kCount, kSet},
    {metric::kCacheRejectedFills, "cache_rejected_fills", kCount, kSet,
     c::kM3rGroup, c::kCacheRejectedFills},
    {metric::kCacheForcedFills, "cache_forced_fills", kCount, kSet},
    {metric::kCacheAbortedEvictions, "cache_aborted_evictions", kCount, kSet,
     c::kM3rGroup, c::kCacheAbortedEvictions},
    {metric::kCacheLeasesActive, "cache_leases_active", kCount, kSet,
     c::kM3rGroup, c::kCacheLeasesActive},
    {metric::kCacheEvictorInflight, "cache_evictor_inflight", kCount, kSet,
     c::kM3rGroup, c::kCacheEvictorInflight},
    {metric::kMemoryBudgetBytes, "memory_budget_bytes", kBytes, kSet},
    {metric::kMemoryPeakBytes, "memory_peak_bytes", kBytes, kSet},

    {metric::kL2Hits, "l2_hits", kCount, kSet, c::kM3rGroup, c::kL2Hits},
    {metric::kL2Misses, "l2_misses", kCount, kSet, c::kM3rGroup, c::kL2Misses},
    {metric::kL2Demotions, "l2_demotions", kCount, kSet, c::kM3rGroup,
     c::kL2Demotions},
    {metric::kL2RemoteBytes, "l2_remote_bytes", kBytes, kSet, c::kM3rGroup,
     c::kL2RemoteBytes},
    {metric::kL2RingHeals, "l2_ring_heals", kCount, kSet, c::kM3rGroup,
     c::kL2RingHeals},
    {metric::kL2OverflowFills, "l2_overflow_fills", kCount, kSet},
    {metric::kL2BytesResident, "l2_bytes_resident", kBytes, kSet},

    {metric::kSchedWaitMs, "sched_wait_ms", kMs, kSet},
    {metric::kSchedAttempts, "sched_attempts", kCount, kSet},
    {metric::kSchedPreemptions, "sched_preemptions", kCount, kSet},
    {metric::kSchedWatchdogKills, "sched_watchdog_kills", kFlag, kSet},
};

constexpr bool RowsInIdOrder() {
  if (std::size(kTable) != metric::kNumIds) return false;
  for (size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].id != static_cast<int>(i)) return false;
  }
  return true;
}
static_assert(RowsInIdOrder(), "one row per metric::Id, in Id order");

const Metric& RowOfKind(metric::Id id, Kind kind) {
  const Metric& row = kTable[id];
  M3R_CHECK(row.kind == kind) << row.name << " is written with the other call";
  return row;
}

}  // namespace

std::span<const Metric> Table() { return kTable; }

void Add(JobResult* result, metric::Id id, int64_t delta) {
  const Metric& row = RowOfKind(id, kSum);
  result->metrics[row.name] += delta;
  if (row.group != nullptr && delta != 0) {
    result->counters.Increment(row.group, row.counter, delta);
  }
}

void Set(JobResult* result, metric::Id id, int64_t value) {
  const Metric& row = RowOfKind(id, kSet);
  result->metrics[row.name] = value;
  SetMirror(&result->counters, id, value);
}

void SetMirror(Counters* counters, metric::Id id, int64_t value) {
  const Metric& row = RowOfKind(id, kSet);
  if (row.group == nullptr) return;
  counters->Increment(row.group, row.counter,
                      value - counters->Get(row.group, row.counter));
}

void SetIntegrity(JobResult* result, const IntegrityContext* integrity) {
  if (integrity == nullptr || !integrity->enabled()) return;
  const IntegrityCounters& n = *integrity->counters;
  Set(result, metric::kIntegrityDetected, n.detected.load());
  Set(result, metric::kIntegrityRepaired, n.repaired.load());
  Set(result, metric::kIntegrityBytesChecksummed, n.bytes_checksummed.load());
}

}  // namespace m3r::api::metrics

#ifndef M3R_API_COUNTERS_H_
#define M3R_API_COUNTERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

namespace m3r::api {

/// Hadoop-style counters: (group, name) -> int64, incremented by user code
/// through the Reporter/Context and by the engines for system counters.
/// Both engines propagate user counters and keep the standard system
/// counters updated (paper §5.3).
class Counters {
 public:
  /// (group, name) order that also compares against string_view pairs, so
  /// a lookup builds no std::string.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return std::pair<std::string_view, std::string_view>(a.first,
                                                           a.second) <
             std::pair<std::string_view, std::string_view>(b.first,
                                                           b.second);
    }
  };
  using Map =
      std::map<std::pair<std::string, std::string>, int64_t, KeyLess>;

  Counters() = default;
  Counters(const Counters& other);
  Counters& operator=(const Counters& other);

  void Increment(std::string_view group, std::string_view name,
                 int64_t delta);
  int64_t Get(std::string_view group, std::string_view name) const;

  void MergeFrom(const Counters& other);

  Map Snapshot() const;
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  Map values_;
};

/// Standard system counter group/name constants kept by both engines.
namespace counters {
inline constexpr char kTaskGroup[] = "org.apache.hadoop.mapred.Task$Counter";
inline constexpr char kMapInputRecords[] = "MAP_INPUT_RECORDS";
inline constexpr char kMapOutputRecords[] = "MAP_OUTPUT_RECORDS";
inline constexpr char kMapOutputBytes[] = "MAP_OUTPUT_BYTES";
inline constexpr char kCombineInputRecords[] = "COMBINE_INPUT_RECORDS";
inline constexpr char kCombineOutputRecords[] = "COMBINE_OUTPUT_RECORDS";
inline constexpr char kReduceInputGroups[] = "REDUCE_INPUT_GROUPS";
inline constexpr char kReduceInputRecords[] = "REDUCE_INPUT_RECORDS";
inline constexpr char kReduceOutputRecords[] = "REDUCE_OUTPUT_RECORDS";
inline constexpr char kReduceShuffleBytes[] = "REDUCE_SHUFFLE_BYTES";
inline constexpr char kSpilledRecords[] = "SPILLED_RECORDS";

inline constexpr char kFsGroup[] = "FileSystemCounters";
inline constexpr char kHdfsBytesRead[] = "HDFS_BYTES_READ";
inline constexpr char kHdfsBytesWritten[] = "HDFS_BYTES_WRITTEN";
inline constexpr char kFileBytesRead[] = "FILE_BYTES_READ";
inline constexpr char kFileBytesWritten[] = "FILE_BYTES_WRITTEN";

inline constexpr char kM3rGroup[] = "M3R";
inline constexpr char kCacheHits[] = "CACHE_HIT_SPLITS";
inline constexpr char kCacheMisses[] = "CACHE_MISS_SPLITS";
inline constexpr char kLocalShufflePairs[] = "LOCAL_SHUFFLE_PAIRS";
inline constexpr char kRemoteShufflePairs[] = "REMOTE_SHUFFLE_PAIRS";
inline constexpr char kDedupedObjects[] = "DEDUPED_OBJECTS";
inline constexpr char kDedupSavedBytes[] = "DEDUP_SAVED_BYTES";
inline constexpr char kClonedPairs[] = "CLONED_PAIRS";
inline constexpr char kAliasedPairs[] = "ALIASED_PAIRS";
// Shuffle runs (DESIGN.md §15): lane segments sealed as sorted runs and
// shipped, early flushes and barrier drains alike (with
// m3r.shuffle.flush.bytes=0, one run per non-empty lane at the barrier),
// and whole runs spilled through the checkpoint path when a partition
// crossed its resident budget.
inline constexpr char kShuffleRunsShipped[] = "SHUFFLE_RUNS_SHIPPED";
inline constexpr char kShuffleOverflowSpills[] = "SHUFFLE_OVERFLOW_SPILLS";
// Memory governance (src/memgov): per-job deltas except BYTES_RESIDENT,
// which is the cache's live footprint at the last progress sync.
inline constexpr char kCacheEvictions[] = "CACHE_EVICTIONS";
inline constexpr char kCacheEvictedBytes[] = "CACHE_EVICTED_BYTES";
inline constexpr char kCacheBytesResident[] = "CACHE_BYTES_RESIDENT";
inline constexpr char kCacheRejectedFills[] = "CACHE_REJECTED_FILLS";
// Lease/epoch protocol health (DESIGN.md §13): live gauges sampled at
// every progress sync plus job-end totals — a stuck lease or a
// perpetually in-flight evictor shows up here before it shows up as a
// watchdog kill.
inline constexpr char kCacheLeasesActive[] = "CACHE_LEASES_ACTIVE";
inline constexpr char kCacheEvictorInflight[] = "CACHE_EVICTOR_INFLIGHT";
/// Evictions claimed and then abandoned because post-spill revalidation
/// saw a new pin, lease, or fill epoch — each one is a lost-block race
/// the protocol refused to lose.
inline constexpr char kCacheAbortedEvictions[] = "CACHE_ABORTED_EVICTIONS";
/// 1 when the whole job was served from a live cached output with a
/// matching lineage signature (m3r.cache.reuse=exact) — no map or reduce
/// task ran.
inline constexpr char kReusedFromCache[] = "REUSED_FROM_CACHE";
// Two-tier cache (src/l2cache; DESIGN.md §16): per-job deltas of the
// consistent-hash L2 tier — promotions served, misses that fell through
// to the DFS, L1 victims absorbed by demotion, cross-place tier traffic,
// and dead shards reassigned to survivors after a confirmed place death.
inline constexpr char kL2Hits[] = "L2_HITS";
inline constexpr char kL2Misses[] = "L2_MISSES";
inline constexpr char kL2Demotions[] = "L2_DEMOTIONS";
inline constexpr char kL2RemoteBytes[] = "L2_REMOTE_BYTES";
inline constexpr char kL2RingHeals[] = "L2_RING_HEALS";
// Place-failure recovery (DESIGN.md §14): crash/teardown/replay tallies,
// incremented at each quiesce point so a watching client sees recovery
// progress live, and mirrored into the job-end metrics on both the
// recovered and failed paths.
inline constexpr char kPlaceCrashes[] = "PLACE_CRASHES";
inline constexpr char kCacheEvictedByCrashBlocks[] =
    "CACHE_EVICTED_BY_CRASH_BLOCKS";
inline constexpr char kRecoveredMapTasks[] = "RECOVERED_MAP_TASKS";
/// Simulated recovery span (replayed tasks + checkpoint heal reads) in
/// milliseconds — the makespan cost of surviving the crash, also charged
/// to the `recovery` phase.
inline constexpr char kRecoveryMillis[] = "RECOVERY_MILLIS";

// Serving front end (m3r::engine::JobServer): live per-queue gauges
// mirrored into a running ticket's LiveCounters on every progress sync —
// current depth/occupancy of the job's queue, this job's queued wait, and
// the queue's share of all completed simulated seconds (per-mille, so a
// plain int64 counter can carry it).
inline constexpr char kSchedulerGroup[] = "Scheduler";
inline constexpr char kSchedQueueQueued[] = "QUEUE_QUEUED";
inline constexpr char kSchedQueueRunning[] = "QUEUE_RUNNING";
inline constexpr char kSchedQueueCompleted[] = "QUEUE_COMPLETED";
inline constexpr char kSchedWaitMs[] = "WAIT_MS";
inline constexpr char kSchedQueueShareMille[] = "QUEUE_SHARE_MILLE";
inline constexpr char kSchedAttempts[] = "ATTEMPTS";
/// Jobs this queue lost to the watchdog (m3r.job.timeout.sec /
/// m3r.job.heartbeat.stall.sec) — mirrored live and recorded as
/// sched_watchdog_kills in the job-end metrics.
inline constexpr char kSchedWatchdogKills[] = "WATCHDOG_KILLS";
}  // namespace counters

}  // namespace m3r::api

#endif  // M3R_API_COUNTERS_H_

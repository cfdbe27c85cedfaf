#ifndef M3R_API_JOB_CONF_H_
#define M3R_API_JOB_CONF_H_

#include <string>
#include <vector>

#include "api/configuration.h"

namespace m3r::api {

/// Well-known configuration keys, mirroring Hadoop's property names so that
/// ported jobs read naturally. Every `m3r.*` key here is a row of the knob
/// table (api/knobs.h), which holds its type, default and range.
namespace conf {
inline constexpr char kJobName[] = "mapred.job.name";
inline constexpr char kNumReduceTasks[] = "mapred.reduce.tasks";

// Old-style (mapred) user classes.
inline constexpr char kMapredMapper[] = "mapred.mapper.class";
inline constexpr char kMapredCombiner[] = "mapred.combiner.class";
inline constexpr char kMapredReducer[] = "mapred.reducer.class";
inline constexpr char kMapRunner[] = "mapred.map.runner.class";

// New-style (mapreduce) user classes.
inline constexpr char kMapreduceMapper[] = "mapreduce.job.map.class";
inline constexpr char kMapreduceCombiner[] = "mapreduce.job.combine.class";
inline constexpr char kMapreduceReducer[] = "mapreduce.job.reduce.class";

inline constexpr char kPartitioner[] = "mapred.partitioner.class";
inline constexpr char kInputFormat[] = "mapred.input.format.class";
inline constexpr char kOutputFormat[] = "mapred.output.format.class";
inline constexpr char kInputDirs[] = "mapred.input.dir";
inline constexpr char kOutputDir[] = "mapred.output.dir";

inline constexpr char kOutputKeyClass[] = "mapred.output.key.class";
inline constexpr char kOutputValueClass[] = "mapred.output.value.class";
/// Map-output (intermediate) types; default to the job output types.
inline constexpr char kMapOutputKeyClass[] = "mapred.mapoutput.key.class";
inline constexpr char kMapOutputValueClass[] = "mapred.mapoutput.value.class";
/// Sort (output key) comparator; raw-byte comparator registry name.
inline constexpr char kSortComparator[] =
    "mapred.output.key.comparator.class";
/// Grouping comparator for reduce-group boundaries (secondary sort).
inline constexpr char kGroupingComparator[] =
    "mapred.output.value.groupfn.class";

inline constexpr char kCacheFiles[] = "mapreduce.job.cache.files";
inline constexpr char kJobEndNotificationUrl[] =
    "mapred.job.end.notification.url";
inline constexpr char kQueueName[] = "mapred.job.queue.name";

/// Ask an M3R-aware client to force this job onto the Hadoop engine
/// (integrated-mode escape hatch, paper §5.3).
inline constexpr char kForceHadoopEngine[] = "m3r.force.hadoop";
/// Outputs whose final path component starts with this prefix are treated
/// as temporary by M3R: cached but never written to the DFS (paper §4.2.3).
inline constexpr char kTempPrefix[] = "m3r.temp.prefix";
/// Explicit comma-separated list of output paths to treat as temporary.
inline constexpr char kTempPaths[] = "m3r.temp.paths";
/// Per-job override of the M3R engine's worker strands per place (map
/// execution, shuffle decode, reduce execution). 0 or unset defers to
/// M3REngineOptions::workers_per_place.
inline constexpr char kPlaceWorkers[] = "m3r.place.workers";
/// Map-side hash aggregation: run the job's combiner incrementally at
/// map-emit time over a hash table on serialized key bytes (legal only for
/// byte-default grouping; see api/hash_combine.h). Off by default —
/// byte-identical output is only guaranteed for commutative/associative
/// combiners.
inline constexpr char kMapHashCombine[] = "m3r.map.hash.combine";
/// Memory budget for the hash-combine table; overflowing drains the whole
/// table downstream (a "spill") and starts over.
inline constexpr char kMapHashCombineMemoryMb[] =
    "m3r.map.hash.combine.memory.mb";
/// Pair count above which SortPairs fans out over the engine's executor
/// (parallel sorted runs + pairwise merges).
inline constexpr char kSortParallelThreshold[] =
    "m3r.sort.parallel.threshold";
/// Retired: the shuffle always streams. Kept so existing confs that set the
/// former default "on" still compile and run; any other value fails the
/// job (use kShuffleFlushBytes = 0 for a barrier exchange).
inline constexpr char kShufflePipeline[] = "m3r.shuffle.pipeline";
/// Buffered bytes per shuffle lane before the lane segment is sealed as a
/// sorted run and shipped to its reducer place, so wire time and run
/// sorting overlap map compute and the post-barrier shuffle span only pays
/// the residual (default 262144). 0 = never flush before the barrier: the
/// paper's barrier exchange (§5.1), every lane shipped whole at DeliverTo.
inline constexpr char kShuffleFlushBytes[] = "m3r.shuffle.flush.bytes";
/// Resident-run budget per reduce partition in MiB; crossing it spills
/// whole sorted runs through the checkpoint path, to be merged back lazily
/// at reduce time. 0 (default) = unlimited.
inline constexpr char kShufflePartitionBudgetMb[] =
    "m3r.shuffle.partition.budget.mb";

// --- Resilience (Hadoop task retry/speculation, M3R recovery) ---
/// Attempts allowed per map/reduce task before the job fails (Hadoop
/// default: 4). Failed attempts are re-run and their time is charged to
/// the simulated makespan.
inline constexpr char kMapMaxAttempts[] = "mapred.map.max.attempts";
inline constexpr char kReduceMaxAttempts[] = "mapred.reduce.max.attempts";
/// Task failures tolerated on one node before it is blacklisted for the
/// rest of the job (placement only — the node's slots stop taking tasks).
inline constexpr char kMaxTrackerFailures[] = "mapred.max.tracker.failures";
/// Enables speculative execution of straggler tasks (off by default here;
/// the simulator's deterministic durations rarely produce stragglers).
inline constexpr char kSpeculativeExecution[] =
    "mapred.speculative.execution";
/// A task is speculated when its duration exceeds this multiple of the
/// phase's mean task duration.
inline constexpr char kSpeculativeSlowTaskThreshold[] =
    "mapred.speculative.slowtaskthreshold";
/// M3R checkpoint policy: "off" (default), "tempout" (spill cache-only
/// temporary outputs to the DFS in the background), or "all".
inline constexpr char kCacheCheckpoint[] = "m3r.cache.checkpoint";
/// M3R mid-job place-failure recovery (DESIGN.md §14): the crash budget,
/// total dead places tolerated per job (default 2). Within it the engine
/// quiesces the map phase, re-homes the dead place's partitions onto
/// survivors, replays only the lost map tasks and continues into reduce.
/// 0 turns recovery off (the paper's behavior: any place crash fails the
/// whole job with a retriable Unavailable). Crashes past the recovery
/// horizon — during the reduce phase, or beyond the budget — always fall
/// back to the whole-job failure.
inline constexpr char kPlaceRecoveryMaxCrashes[] =
    "m3r.place.recovery.max.crashes";
/// Scripted mid-map crash points, "P:N[,P:N...]": place P crashes when it
/// is about to start its (N+1)-th map task (N = 0 crashes it before any
/// task runs). Deterministic mid-phase timing for recovery tests and the
/// chaos harness; entries naming places the job doesn't have are inert,
/// and so is the whole key on the Hadoop engine.
inline constexpr char kPlaceCrashAt[] = "m3r.place.crash.at";
/// Job-level retries by JobClient::SubmitJob on retriable failures.
inline constexpr char kJobMaxAttempts[] = "m3r.job.max.attempts";
inline constexpr char kJobRetryBackoffMs[] = "m3r.job.retry.backoff.ms";
/// End-to-end CRC32C integrity: "off" (default), "detect" (checksum
/// mismatches fail with DataLoss), or "repair" (each boundary re-reads a
/// surviving copy before giving up). See common/integrity.h.
inline constexpr char kIntegrityMode[] = "m3r.integrity.mode";

// --- Memory governance (src/memgov; M3R engine only) ---
/// Total budget for the engine's long-lived byte holders (cache, shuffle
/// buffer pool, hash-combine tables, checkpoint spill queue), in MiB.
/// 0 (default) = ungoverned: cache without bound, as the paper does.
inline constexpr char kMemoryBudgetMb[] = "m3r.memory.budget.mb";
/// The cache's share of the budget, a fraction in [0,1] (default 1.0: only
/// the total binds). Set on every submission; the serving front end clamps
/// it to the dispatching tenant's quota.
inline constexpr char kMemoryShareCache[] = "m3r.memory.share.cache";
/// Watermarks (fractions of the cache's share) applied at admission: a
/// fill that would lift residency over `high` first evicts down to `low`.
inline constexpr char kMemoryHighWatermark[] = "m3r.memory.high.watermark";
inline constexpr char kMemoryLowWatermark[] = "m3r.memory.low.watermark";
/// Cache eviction policy under a budget: lru (default) | lfu | cost
/// (cost-aware: evict the lowest rebuild-cost-per-byte entry, using the
/// recorded fill time).
inline constexpr char kCachePolicy[] = "m3r.cache.policy";
/// Two-tier cache (src/l2cache; DESIGN.md §16): fraction of the memory
/// budget given to the consistent-hash L2 tier, in [0,1]. 0 (default)
/// disables the tier; with it on, L1 evictions demote their victim to the
/// victim's home shard instead of spilling to /_m3r_ckpt when the shard
/// has room, and L1 misses promote from the tier before re-reading DFS.
/// Only meaningful under a nonzero m3r.memory.budget.mb.
inline constexpr char kCacheL2Share[] = "m3r.cache.l2.share";
/// Virtual points per place on the L2 hash ring (default 16).
inline constexpr char kCacheL2VNodes[] = "m3r.cache.l2.vnodes";
/// ReStore-style cross-job output reuse: "off" (default) or "exact" — a
/// submitted job whose lineage signature (inputs + conf digest + user
/// class identity) matches a live cached output is served from the cache,
/// skipping map/reduce entirely (REUSED_FROM_CACHE counter).
inline constexpr char kCacheReuse[] = "m3r.cache.reuse";
/// Deterministic seed shared by the fault injector and retry jitter.
inline constexpr char kFaultSeed[] = "m3r.fault.seed";
/// Per-site fault injection, one key family per attribute; <site> is one
/// of kFaultSites (common/fault_injector.h). Read with knobs::FaultSites.
inline constexpr char kFaultProb[] = "m3r.fault.<site>.prob";
inline constexpr char kFaultNth[] = "m3r.fault.<site>.nth";
inline constexpr char kFaultLimit[] = "m3r.fault.<site>.limit";

// --- Serving front end (m3r::engine::JobServer; DESIGN.md §12) ---
/// Conf-key fallbacks for the typed Submission fields, read by
/// Submission::FromConf for bare-conf clients (port-based submission).
/// Queue falls back to mapred.job.queue.name.
inline constexpr char kSubmissionTenant[] = "m3r.server.tenant";
inline constexpr char kSubmissionPriority[] = "m3r.server.priority";
inline constexpr char kSubmissionDeadlineHint[] =
    "m3r.server.deadline.hint.seconds";
/// --- Job watchdog (JobServer; DESIGN.md §13) ---
/// Hard cap on a dispatched job's wall-clock runtime, in seconds. The
/// monitor cancels an over-deadline job and settles it with the typed
/// retriable DeadlineExceeded. 0 (default) = no cap.
inline constexpr char kJobTimeoutSec[] = "m3r.job.timeout.sec";
/// Max seconds without a heartbeat (any task completion or phase
/// milestone advances the job's heartbeat epoch) before the job is
/// declared stalled and killed the same way. 0 (default) = disabled.
inline constexpr char kJobHeartbeatStallSec[] = "m3r.job.heartbeat.stall.sec";

}  // namespace conf

/// Job configuration: a Configuration plus convenience accessors for the
/// standard job properties. Submitted to an Engine; also passed to every
/// user class, and commonly used to smuggle app-specific settings.
class JobConf : public Configuration {
 public:
  void SetJobName(const std::string& name) { Set(conf::kJobName, name); }
  std::string JobName() const { return Get(conf::kJobName, "job"); }

  void SetNumReduceTasks(int n) { SetInt(conf::kNumReduceTasks, n); }
  int NumReduceTasks() const {
    return static_cast<int>(GetInt(conf::kNumReduceTasks, 1));
  }

  // --- user classes (old API) ---
  void SetMapperClass(const std::string& name) {
    Set(conf::kMapredMapper, name);
  }
  void SetCombinerClass(const std::string& name) {
    Set(conf::kMapredCombiner, name);
  }
  void SetReducerClass(const std::string& name) {
    Set(conf::kMapredReducer, name);
  }
  void SetMapRunnerClass(const std::string& name) {
    Set(conf::kMapRunner, name);
  }

  // --- user classes (new API) ---
  void SetMapreduceMapperClass(const std::string& name) {
    Set(conf::kMapreduceMapper, name);
  }
  void SetMapreduceCombinerClass(const std::string& name) {
    Set(conf::kMapreduceCombiner, name);
  }
  void SetMapreduceReducerClass(const std::string& name) {
    Set(conf::kMapreduceReducer, name);
  }

  void SetPartitionerClass(const std::string& name) {
    Set(conf::kPartitioner, name);
  }
  void SetInputFormatClass(const std::string& name) {
    Set(conf::kInputFormat, name);
  }
  void SetOutputFormatClass(const std::string& name) {
    Set(conf::kOutputFormat, name);
  }

  void AddInputPath(const std::string& path);
  std::vector<std::string> InputPaths() const {
    return GetStrings(conf::kInputDirs);
  }
  void SetOutputPath(const std::string& path) {
    Set(conf::kOutputDir, path);
  }
  std::string OutputPath() const { return Get(conf::kOutputDir); }

  void SetOutputKeyClass(const std::string& name) {
    Set(conf::kOutputKeyClass, name);
  }
  void SetOutputValueClass(const std::string& name) {
    Set(conf::kOutputValueClass, name);
  }
  void SetMapOutputKeyClass(const std::string& name) {
    Set(conf::kMapOutputKeyClass, name);
  }
  void SetMapOutputValueClass(const std::string& name) {
    Set(conf::kMapOutputValueClass, name);
  }
  /// Intermediate key type: map-output key class if set, else output key.
  std::string MapOutputKeyClass() const {
    std::string v = Get(conf::kMapOutputKeyClass);
    return v.empty() ? Get(conf::kOutputKeyClass) : v;
  }
  std::string MapOutputValueClass() const {
    std::string v = Get(conf::kMapOutputValueClass);
    return v.empty() ? Get(conf::kOutputValueClass) : v;
  }

  void SetSortComparatorClass(const std::string& name) {
    Set(conf::kSortComparator, name);
  }
  void SetGroupingComparatorClass(const std::string& name) {
    Set(conf::kGroupingComparator, name);
  }

  /// True if the job declares a new-API mapper (the new class wins if both
  /// are configured, as in Hadoop when the new API is enabled).
  bool UsesNewApiMapper() const { return Contains(conf::kMapreduceMapper); }
  bool UsesNewApiReducer() const { return Contains(conf::kMapreduceReducer); }
  bool UsesNewApiCombiner() const {
    return Contains(conf::kMapreduceCombiner);
  }

  bool HasMapper() const {
    return Contains(conf::kMapredMapper) || Contains(conf::kMapreduceMapper);
  }
  bool HasCombiner() const {
    return Contains(conf::kMapredCombiner) ||
           Contains(conf::kMapreduceCombiner);
  }
  /// A job with zero reducers is "map-only": map output goes straight to
  /// the OutputFormat (paper §5.3).
  bool IsMapOnly() const { return NumReduceTasks() == 0; }
};

}  // namespace m3r::api

#endif  // M3R_API_JOB_CONF_H_

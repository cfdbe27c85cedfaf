#ifndef M3R_M3R_SHUFFLE_H_
#define M3R_M3R_SHUFFLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/executor.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/membership.h"
#include "common/sort.h"
#include "common/status.h"
#include "kvstore/kv_store.h"
#include "serialize/dedup.h"
#include "sim/cost_model.h"

namespace m3r::engine {

/// Deterministic partition -> place mapping, M3R's partition-stability
/// guarantee (paper §3.2.2.2): for a fixed number of reducers, partition p
/// always runs at the same place, across every job of the sequence.
inline int StablePlaceOfPartition(int partition, int num_places) {
  return partition % num_places;
}

/// Overflow-run storage for the shuffle (DESIGN.md §15): whole
/// sorted runs evicted from a partition's resident budget are written here
/// and read back lazily at reduce time. The engine backs this with the
/// /_m3r_ckpt spill path.
class RunSpillSink {
 public:
  virtual ~RunSpillSink() = default;
  virtual Status Write(const std::string& id, const std::string& bytes) = 0;
  virtual Status Read(const std::string& id, std::string* bytes) = 0;
};

/// One sealed, sorted slice of a reduce partition's remote input.
/// Records are (varint key length, serialized key bytes, varint value
/// length, serialized value bytes), sorted by the job's sort comparator at
/// flush time.
struct SortedRun {
  int src_place = 0;
  int worker_lane = 0;
  /// Flush sequence within the source lane.
  uint64_t seq = 0;
  /// Partition-map version when the run was sealed — the discard tag for
  /// pre-barrier runs of a place that later dies (DESIGN.md §14/§15).
  uint64_t map_version = 1;
  uint64_t records = 0;
  std::string bytes;
  /// Registry type names of the records, for reduce-time reconstruction.
  std::string key_type;
  std::string value_type;
  bool resident = true;  // false once spilled through the sink
  std::string spill_id;
  uint32_t spill_crc = 0;
};

/// Stability ordinal of a run for sortkit::RunMerger: among equal keys,
/// records drain local-first (ordinal 0 is reserved for the home place's
/// local pairs), then in (source place, worker lane, flush seq) order —
/// the order a barrier exchange splices lanes before a stable sort, so the
/// merge reproduces that sort byte for byte at any flush threshold.
inline uint64_t RunOrdinal(int src_place, int worker_lane, uint64_t seq) {
  return ((static_cast<uint64_t>(src_place) + 1) << 42) |
         (static_cast<uint64_t>(worker_lane) << 21) | (seq + 1);
}

/// Construction-time knobs for one job's shuffle.
struct ShuffleOptions {
  int num_partitions = 1;
  /// X10 serialization de-duplication policy for the remote streams.
  serialize::DedupMode dedup_mode = serialize::DedupMode::kFull;
  /// Ablation: when false, partition -> place assignment is re-salted per
  /// job (Hadoop-style arbitrary placement).
  bool partition_stability = true;
  int instability_salt = 0;
  /// Concurrent mapper strands per source place. Each strand owns its own
  /// serialization lane per destination, so Emit never contends on a
  /// stream and every lane's wire bytes stay deterministic.
  int workers_per_place = 1;
  /// Optional fault injector consulted per shipped run: "channel.send"
  /// fires before the run leaves its lane (lost in transit),
  /// "channel.decode" fires before it is cut (corrupted receive). Keys are
  /// "src->dst#lane". Failures accumulate in status().
  std::shared_ptr<FaultInjector> fault;
  /// Optional per-job integrity context: each shipped run's wire is
  /// CRC32C-stamped by the sender and verified (under the
  /// "corrupt.channel.frame" site, same keys as above) before decode; in
  /// repair mode a mismatching frame is re-fetched from the sender's
  /// buffer, in detect mode it surfaces as DataLoss in status().
  std::shared_ptr<IntegrityContext> integrity;
  /// Optional engine-lifetime buffer pool. Lane wire buffers are acquired
  /// from it and each shipped run's buffer is returned right after the run
  /// is cut, so the decaying size hints track run size.
  BufferPool* buffer_pool = nullptr;

  // --- Streaming exchange (DESIGN.md §15) ---
  /// Buffered bytes per lane before the lane segment is sealed as a sorted
  /// run and shipped early. 0 = never flush before the barrier: each lane
  /// ships whole at DeliverTo, the paper's barrier exchange (§5.1).
  size_t flush_bytes = 256 * 1024;
  /// Resident-run budget per partition in bytes; crossing it spills whole
  /// runs (oldest first) through `spill_sink`. 0 = unlimited.
  size_t partition_budget_bytes = 0;
  /// Run sort order; must match the job's sort comparator. Null selects
  /// the raw-byte default (prefix-cached kernel). The callback must
  /// outlive the exchange.
  const sortkit::RawCompareFn* run_comparator = nullptr;
  /// Overflow-run storage; required when partition_budget_bytes > 0.
  RunSpillSink* spill_sink = nullptr;
  /// Optional external mirror of the resident run bytes, so an
  /// engine-lifetime MemoryGovernor gauge ("shuffle.pool") can see a live
  /// job's run footprint. Kept exact across append/spill/drain/destruct.
  std::atomic<uint64_t>* resident_gauge = nullptr;
};

/// One job's in-memory shuffle (paper §3.2.2).
///
/// Mapper emissions are routed by the partitioner's partition number:
///  - same-place destination + ImmutableOutput producer: the pair is passed
///    as an *alias*, no serialization, no copy (co-location fast path);
///  - same-place destination, mutable producer: the pair is cloned
///    (serialization round trip), preserving HMR reuse semantics;
///  - remote destination: the pair is written to the per-(source place,
///    destination place, worker lane) X10-style serialization stream, which
///    de-duplicates repeated objects — so a value broadcast to every
///    reducer of a place crosses the wire once per lane (paper §3.2.2.3).
///
/// Concurrency contract: Emit is safe for concurrent callers at one source
/// place as long as each caller sticks to its own `worker_lane` (streams
/// are lane-confined; local-delivery appends and stat counters are
/// internally synchronized). DeliverTo for distinct destination places may
/// run concurrently after the map barrier.
class ShuffleExchange {
 public:
  ShuffleExchange(int num_places, const ShuffleOptions& options);
  /// Releases lane wire buffers back to the pool (when one is configured).
  ~ShuffleExchange();

  /// Current home of `partition` under the versioned partition map
  /// (DESIGN.md §14). Within one map version this is exactly the stable
  /// assignment; a DropDeadPlaces call bumps the version by re-homing the
  /// dead places' partitions onto survivors.
  int PlaceOfPartition(int partition) const;
  /// Partition-map version: 1 until a place dies, +1 per recovery round.
  uint64_t map_version() const { return map_.version(); }
  int workers_per_place() const { return workers_; }

  /// Called by the map phase at `src_place` from the strand owning
  /// `worker_lane` (in [0, workers_per_place)).
  void Emit(int src_place, int partition, const serialize::WritablePtr& key,
            const serialize::WritablePtr& value, bool immutable,
            int worker_lane = 0);

  /// Emit for a pair that arrives with its serialized bytes (`key_bytes` /
  /// `value_bytes` are exactly SerializeToString of `key` / `value`). The
  /// objects must be fresh instances no one else references or mutates: a
  /// local destination aliases them, a remote one writes the bytes as new
  /// objects without serializing or pinning the pair. Wire bytes equal
  /// Emit's for fresh objects.
  void EmitSerialized(int src_place, int partition,
                      const serialize::WritablePtr& key,
                      const serialize::WritablePtr& value,
                      std::string_view key_bytes,
                      std::string_view value_bytes, int worker_lane = 0);

  /// Map barrier has passed: ship each lane inbound to `dst_place` that
  /// still holds unflushed records as one last sorted run (the whole lane
  /// when flush_bytes is 0). When `executor` is non-null the lanes are cut
  /// concurrently (at most `max_workers` strands). Each stream's decode
  /// and sort work is counted for the engine's simulated-time attribution
  /// (DecodeWork).
  void DeliverTo(int dst_place, Executor* executor = nullptr,
                 int max_workers = 1);

  /// The work of decoding each inbound stream of `dst_place`, in
  /// deterministic (source place, lane) order. Valid after DeliverTo.
  const std::vector<sim::CpuWork>& DecodeWork(int dst_place) const;

  /// Takes the work the strand owning `worker_lane` at `src_place` did
  /// inside the shuffle since its last take: every pair it emitted (kEmit,
  /// with the bytes it serialized to the wire) and every run it sealed at
  /// an emit-time flush (kDecode, kSort). Call only from that strand.
  sim::CpuWork TakeStrandWork(int src_place, int worker_lane);

  /// First injected-fault failure observed during any DeliverTo, or OK.
  /// A failed lane delivers no pairs, so the engine must fail the job when
  /// this is non-ok rather than reduce over partial shuffle data.
  Status status() const;

  /// The home place's *local* emissions for `partition`; remote pairs
  /// arrive as sorted runs (CollectPartitionRuns).
  const kvstore::KVSeq& PartitionPairs(int partition) const;

  /// Moves out every sorted run of `partition`, reloading spilled runs from
  /// the sink (CRC-verified). Call after DeliverTo on the partition's
  /// place; each partition may be drained once. Non-ok when a spilled run
  /// cannot be read back intact.
  Status CollectPartitionRuns(int partition, std::vector<SortedRun>* out);

  /// Wire bytes shipped from src to dst (after de-duplication), summed
  /// over all worker lanes, including pre-barrier run flushes.
  uint64_t WireBytes(int src_place, int dst_place) const;
  /// The subset of WireBytes shipped at the barrier (the residual drain).
  /// Equals WireBytes when flush_bytes is 0. Valid after DeliverTo.
  uint64_t BarrierWireBytes(int src_place, int dst_place) const;

  struct Stats {
    uint64_t local_pairs = 0;
    uint64_t remote_pairs = 0;
    uint64_t aliased_pairs = 0;
    uint64_t cloned_pairs = 0;
    uint64_t deduped_objects = 0;
    uint64_t dedup_saved_bytes = 0;
    uint64_t total_wire_bytes = 0;
    uint64_t runs_shipped = 0;      // lane segments sealed and shipped
    uint64_t overflow_spills = 0;   // whole runs spilled through the sink
    uint64_t peak_resident_run_bytes = 0;
    /// Largest cumulative run footprint any one partition ever produced
    /// (spilled or not) — what an unbudgeted partition would have held.
    uint64_t max_partition_run_bytes = 0;
  };
  Stats ComputeStats() const;

  struct RecoveryStats {
    int rehomed_partitions = 0;
    /// Pre-barrier pairs dropped from the re-homed partitions. These were
    /// exactly the dead homes' local emissions (remote emissions live in
    /// sender lanes until the barrier), so replaying every task of the dead
    /// places regenerates them at the new homes.
    uint64_t dropped_local_pairs = 0;
    /// Outbound lanes of the dead places released back to the pool.
    int dropped_lanes = 0;
    /// Pre-barrier shipped runs discarded because their
    /// source place died (identified by source + map-version tag; the
    /// replayed tasks re-ship them under the bumped version).
    int dropped_runs = 0;
  };

  /// Quiesce-point recovery (DESIGN.md §14): marks `newly_dead` places dead,
  /// re-homes their partitions onto the sorted `survivors` (partition-map
  /// version bump), drops the dead homes' pre-barrier local pairs, and
  /// discards the dead places' own outbound lanes and emit stats (their map
  /// tasks are replayed at survivors, so their emissions must not count
  /// twice). Surviving senders' lanes *toward* a dead place are retained as
  /// "orphan lanes": at the barrier each is delivered by a deterministic
  /// round-robin survivor and decoded under the current map. Both input
  /// vectors must be ascending and disjoint; never call concurrently with
  /// Emit or DeliverTo.
  RecoveryStats DropDeadPlaces(const std::vector<int>& newly_dead,
                               const std::vector<int>& survivors);

  /// Wire bytes of the orphan lanes this (surviving) place delivers at the
  /// barrier, for the sim's network attribution. Valid after DeliverTo.
  uint64_t OrphanWireBytesFor(int dst_place) const;

 private:
  struct Lane {
    // Remote stream src -> dst place for one worker strand (lazily
    // created; written by exactly one strand, so unsynchronized). Null
    // again once the barrier drain has shipped the lane.
    std::unique_ptr<serialize::DedupOutputStream> out;
    uint64_t deduped = 0;
    uint64_t saved_bytes = 0;
    // Lane-confined until the barrier, read after it:
    uint64_t flush_seq = 0;        // runs sealed from this lane so far
    uint64_t wire_shipped = 0;     // total bytes shipped (all flushes)
    uint64_t barrier_shipped = 0;  // the residual shipped at DeliverTo
  };

  /// Per-partition run set, guarded by the partition's mutex.
  struct PartitionRuns {
    std::vector<SortedRun> runs;
    uint64_t resident_bytes = 0;
    uint64_t total_bytes = 0;  // cumulative, spilled included
  };

  Lane& LaneFor(int src, int dst, int worker);
  const Lane& LaneAt(int src, int dst, int worker) const;
  /// Home place of an emission's partition, after checking the partition
  /// and the emitting worker lane.
  int DestinationOf(int partition, int worker_lane) const;
  /// Remote leg shared by Emit and EmitSerialized: counts the pair, opens
  /// the lane's stream on first use, writes the partition control and then
  /// the pair through `write_pair(stream)`, and seals and ships the lane
  /// segment once it crosses flush_bytes.
  template <typename WritePair>
  void EmitRemote(int src_place, int dst, int partition, int worker_lane,
                  WritePair&& write_pair);
  /// Seals the lane segment, ships it (fault + CRC checks at send time),
  /// splits it into (key, value) byte spans of the frame and appends one
  /// sorted run per partition touched; no Writable is built. `orphan`
  /// lanes were addressed to a now-dead place, so the partition home check
  /// is against the current map's (alive) home instead of the delivering
  /// place. `barrier` marks the final residual drain; early flushes
  /// recreate the lane stream. Either way the wire buffer is recycled per
  /// run. The decode and sort work is added to `*work` (the emitting
  /// strand's tally for an emit-time flush, the stream's at the barrier).
  void FlushLane(Lane* lane, const std::string& lane_key, int src_place,
                 int worker, int dst_place, bool orphan, bool barrier,
                 sim::CpuWork* work);
  /// Appends a sealed run under the partition lock, then runs the
  /// overflow-budget check. Runs stay as shipped: the reduce task merges
  /// every run of its partition in one pass.
  void AppendRun(int partition, SortedRun run);
  /// Spills whole resident runs (oldest first) until the partition is back
  /// under budget. Caller holds the partition lock.
  void SpillOverBudgetLocked(int partition, PartitionRuns* pr);
  void AddResidentRunBytes(int64_t delta);
  void RecordFailure(Status s);
  /// Releases a lane's stream back to the pool and zeroes its stats.
  void DiscardLane(Lane* lane);
  /// Appends the orphan lanes round-robin-assigned to `dst_place`, with
  /// their original "src->dead_dst#w" fault keys, in deterministic order.
  /// `srcs` receives each lane's (source place, worker) address.
  void CollectOrphanLanes(int dst_place, std::vector<Lane*>* lanes,
                          std::vector<std::string>* keys,
                          std::vector<std::pair<int, int>>* srcs);

  const int num_places_;
  const int num_partitions_;
  const serialize::DedupMode dedup_mode_;
  const bool stability_;
  const int salt_;
  const int workers_;
  const std::shared_ptr<FaultInjector> fault_;
  const std::shared_ptr<IntegrityContext> integrity_;
  BufferPool* const pool_;
  const size_t flush_bytes_;
  const size_t partition_budget_bytes_;
  const sortkit::RawCompareFn* const run_comparator_;
  RunSpillSink* const spill_sink_;
  std::atomic<uint64_t>* const resident_gauge_;

  mutable std::mutex status_mu_;
  Status status_;  // first DeliverTo failure

  // Recovery state, mutated only at quiesce points (DropDeadPlaces) and
  // read after the barrier — never concurrently with Emit/DeliverTo.
  PartitionMap map_;
  std::vector<char> dead_;     // per place; lazily sized on first death
  std::vector<int> survivors_; // ascending, set by last DropDeadPlaces
  bool any_dead_ = false;

  std::vector<Lane> lanes_;  // num_places^2 * workers_
  std::vector<kvstore::KVSeq> partitions_;             // per partition
  std::vector<PartitionRuns> partition_runs_;          // per partition
  std::unique_ptr<std::mutex[]> partition_mu_;         // per partition
  std::vector<std::vector<sim::CpuWork>> decode_work_;  // per dst place
  std::vector<sim::CpuWork> strand_work_;  // per (src place, worker lane)
  std::vector<std::atomic<uint64_t>> local_pairs_;     // per src place
  std::vector<std::atomic<uint64_t>> remote_pairs_;    // per src place
  std::vector<std::atomic<uint64_t>> aliased_pairs_;   // per src place
  std::vector<std::atomic<uint64_t>> cloned_pairs_;    // per src place

  std::atomic<uint64_t> resident_run_bytes_{0};
  std::atomic<uint64_t> peak_resident_run_bytes_{0};
  std::atomic<uint64_t> runs_shipped_{0};
  std::atomic<uint64_t> overflow_spills_{0};
  std::atomic<uint64_t> spill_counter_{0};
};

}  // namespace m3r::engine

#endif  // M3R_M3R_SHUFFLE_H_

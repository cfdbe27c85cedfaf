#ifndef M3R_API_HASH_COMBINE_H_
#define M3R_API_HASH_COMBINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/job_conf.h"
#include "api/mr_api.h"
#include "common/status.h"

namespace m3r::api {

/// Engine-side extension a HashCombineCollector's downstream may implement
/// to receive forwarded pairs together with their serialized bytes.
/// `key_bytes` / `value_bytes` are exactly SerializeToString of `key` /
/// `value`, valid only for the duration of the call; the objects are fresh
/// instances no one else references.
class SerializedPairSink {
 public:
  virtual ~SerializedPairSink() = default;
  virtual void CollectSerialized(const WritablePtr& key,
                                 const WritablePtr& value,
                                 std::string_view key_bytes,
                                 std::string_view value_bytes) = 0;
};

/// Map-side hash aggregation (paper §3.2: once the job is in memory, the
/// sort/serialize path *is* the cost — so shrink what enters it). Wraps a
/// map task's real collector with an open-addressed hash table keyed on
/// serialized key bytes and runs the job's combiner incrementally at
/// map-emit time, instead of waiting for the sort to bring equal keys
/// together. For combiner-friendly jobs (WordCount-style) this collapses
/// the records that reach the sort/spill/shuffle machinery from
/// #emissions to #distinct-keys.
///
/// Legality leans on Hadoop's combiner contract: a combiner may run 0..n
/// times over any subset of a key's values, so incremental folding is
/// correct exactly when the combiner is commutative/associative and
/// key-preserving. The wrapper self-checks the key-preserving half at run
/// time: a fold that emits anything other than one pair with the same key
/// bytes permanently disables the table (its outputs are forwarded, and
/// everything afterwards passes straight through — 0 combiner runs, still
/// legal). The commutative/associative half is the documented requirement
/// Hadoop itself imposes on combiners.
///
/// Memory is bounded by m3r.map.hash.combine.memory.mb: overflow drains
/// the whole table downstream (a map-side "spill") and starts empty.
///
/// Records stay bytes from Collect to the drain: an emission is serialized
/// into reusable buffers, a key already in the table appends its value to
/// the entry's flat pending buffer (no allocation), and when downstream
/// implements SerializedPairSink every forwarded pair is handed over with
/// the bytes it was deserialized from, so the shuffle can write them to the
/// wire without serializing the pair again.
class HashCombineCollector : public OutputCollector {
 public:
  /// True when the job's shape permits hash aggregation: it has a
  /// combiner, declares (map) output key/value classes, and groups by the
  /// default byte-equality comparator (a custom grouping order could put
  /// byte-distinct keys in one reduce group, which a byte-keyed table
  /// cannot see).
  static bool Eligible(const JobConf& conf);

  /// `downstream` is the collector records would otherwise reach (the
  /// spill buffer or shuffle); it must outlive this object. Flush() must
  /// be called before downstream is flushed. Every pair forwarded
  /// downstream — drained, folded, or passed through — is a freshly
  /// deserialized object, so downstream may alias it freely regardless of
  /// the mapper's immutability promise. When downstream is also a
  /// SerializedPairSink, pairs arrive through CollectSerialized with the
  /// bytes they were deserialized from; otherwise through Collect.
  ///
  /// The wrapper may outlive a single map task: M3R keeps one per worker
  /// lane for the whole map phase (an "in-node combiner"), so keys
  /// repeated across a place's splits still fold into one shuffle record.
  /// That is legal for the same 0..n-runs reason, and is where the
  /// long-lived-place engine beats Hadoop's per-spill combine scope.
  /// `memory_gauge`, when non-null, receives the table's live byte
  /// footprint as deltas (this instance's contribution is withdrawn on
  /// destruction) — the engine aggregates every lane's table into one
  /// gauge the memory governor polls ("hashcombine" consumer). A delta is
  /// published once the footprint has moved kGaugeStep bytes from the last
  /// published value, and always after a drain, so the gauge never lags a
  /// table by more than kGaugeStep and reads this table's 0 once drained.
  HashCombineCollector(const JobConf& conf, OutputCollector* downstream,
                       Reporter* reporter,
                       std::atomic<int64_t>* memory_gauge = nullptr);
  ~HashCombineCollector() override;

  void Collect(const WritablePtr& key, const WritablePtr& value) override;

  /// Drains the table downstream, posts the COMBINE_* counters its folds
  /// tallied, and settles the MAP_OUTPUT_RECORDS counter (the table
  /// absorbs emissions that downstream never saw, so the delta is added
  /// here to keep Hadoop's counter semantics: one per mapper emission).
  /// Returns the first combiner failure, if any.
  Status Flush();

  /// Mapper emissions collected so far.
  uint64_t collected() const { return collected_; }
  /// Whole-table drains forced by the memory budget.
  uint64_t overflow_spills() const { return overflow_spills_; }
  /// Distinct keys currently held.
  size_t table_entries() const { return entries_.size(); }
  /// Footprint charged against the memory budget (what the gauge tracks).
  size_t table_bytes() const { return bytes_; }

  /// Footprint change that triggers a gauge publish.
  static constexpr int64_t kGaugeStep = int64_t{64} << 10;

 private:
  struct Entry {
    uint64_t hash = 0;
    std::string key_bytes;
    /// Serialized pending values, each as a native u32 length followed by
    /// its bytes; folded down to one by the combiner whenever
    /// kFoldThreshold accumulate. Its capacity survives folds, so a key
    /// that keeps hitting stops allocating.
    std::string pending;
    uint32_t count = 0;  // values in `pending`
    /// Summed value sizes in `pending` (its size less the prefixes).
    size_t payload() const { return pending.size() - count * sizeof(count); }
  };
  /// Open-addressing slot: entry index (-1 empty) plus the high half of
  /// the key hash, so a probe past another key reads no entry.
  struct Slot {
    int32_t index = -1;
    uint32_t tag = 0;
  };

  /// Pending values per key before the combiner folds them. Folding in
  /// batches amortizes the deserialize/run/serialize round trip.
  static constexpr size_t kFoldThreshold = 16;
  /// Approximate per-entry / per-value bookkeeping overhead charged
  /// against the memory budget.
  static constexpr size_t kEntryOverhead = 64;
  static constexpr size_t kValueOverhead = 16;

  void Insert(std::string_view key_bytes, std::string_view value_bytes);
  /// Runs the combiner over one entry's pending values. On a conforming
  /// result the entry holds one value afterwards; otherwise the results go
  /// downstream and the table is disabled.
  void FoldEntry(Entry* entry);
  /// Emits every entry downstream (folding multi-value entries first) in
  /// insertion order, then resets the table.
  void DrainTable();
  void EmitSerialized(std::string_view key_bytes,
                      std::string_view value_bytes);
  void Rehash(size_t new_slot_count);
  /// Pushes the change in bytes_ since the last publish into memory_gauge_
  /// once it reaches kGaugeStep (any change at all when `force`).
  void ReportGauge(bool force);

  const JobConf& conf_;
  OutputCollector* downstream_;
  SerializedPairSink* sink_;  // downstream_'s bytes path, or null
  Reporter* reporter_;
  std::atomic<int64_t>* memory_gauge_;
  int64_t gauge_reported_ = 0;
  /// Map-output key/value prototypes, resolved from the registry once;
  /// every forwarded or combined object is a NewInstance() of these.
  WritablePtr key_proto_;
  WritablePtr value_proto_;
  size_t budget_bytes_;

  /// Collect's serialization buffers, reused across emissions.
  std::string key_buf_;
  std::string value_buf_;

  /// Open-addressing index over entries_. Linear probing.
  std::vector<Slot> slots_;
  std::vector<Entry> entries_;  // insertion order
  size_t bytes_ = 0;

  bool disabled_ = false;
  bool flushed_ = false;
  Status deferred_;  // first combiner failure
  uint64_t collected_ = 0;  // mapper emissions seen
  uint64_t emitted_ = 0;    // pairs forwarded downstream
  // COMBINE_* counter tallies, posted once by Flush().
  uint64_t combine_input_ = 0;
  uint64_t combine_output_ = 0;
  bool combine_completed_ = false;  // some fold ran its combiner to the end
  uint64_t overflow_spills_ = 0;
};

}  // namespace m3r::api

#endif  // M3R_API_HASH_COMBINE_H_

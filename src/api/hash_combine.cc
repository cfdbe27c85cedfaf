#include "api/hash_combine.h"

#include <cstring>
#include <utility>

#include "api/counters.h"
#include "api/knobs.h"
#include "api/task_runner.h"
#include "common/logging.h"
#include "serialize/comparators.h"
#include "serialize/io.h"
#include "serialize/registry.h"

namespace m3r::api {

namespace {

/// FNV-1a over the serialized key bytes.
uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Appends one value to a flat pending buffer: native u32 length, bytes.
void PutPending(std::string* pending, std::string_view value_bytes) {
  M3R_CHECK(value_bytes.size() <= UINT32_MAX) << "value too large to buffer";
  const uint32_t n = static_cast<uint32_t>(value_bytes.size());
  pending->append(reinterpret_cast<const char*>(&n), sizeof(n));
  pending->append(value_bytes);
}

/// Reads the value at `*pos` of a flat pending buffer and steps past it.
std::string_view NextPending(std::string_view pending, size_t* pos) {
  uint32_t n = 0;
  std::memcpy(&n, pending.data() + *pos, sizeof(n));
  std::string_view value = pending.substr(*pos + sizeof(n), n);
  *pos += sizeof(n) + n;
  return value;
}

/// Serializes `w` into `*buf`, reusing its capacity.
void SerializeInto(const Writable& w, std::string* buf) {
  buf->clear();
  serialize::DataOutput out(buf);
  w.Write(out);
}

/// GroupSource presenting exactly one group: a deserialized key plus its
/// flat pending values, deserialized lazily as the combiner pulls.
/// Objects are fresh instances of the collector's resolved prototypes.
class SingleGroupSource : public GroupSource {
 public:
  SingleGroupSource(const Writable& key_proto, const Writable& value_proto,
                    std::string_view key_bytes, std::string_view pending)
      : value_proto_(value_proto), pending_(pending) {
    key_ = key_proto.NewInstance();
    serialize::DeserializeFromString(key_bytes, key_.get());
  }

  bool NextGroup() override {
    if (consumed_) return false;
    consumed_ = true;
    return true;
  }
  const WritablePtr& Key() const override { return key_; }
  ValuesIterator& Values() override { return iter_; }

 private:
  class Iter : public ValuesIterator {
   public:
    explicit Iter(SingleGroupSource* src) : src_(src) {}
    bool HasNext() override { return pos_ < src_->pending_.size(); }
    WritablePtr Next() override {
      M3R_CHECK(HasNext()) << "values iterator exhausted";
      WritablePtr value = src_->value_proto_.NewInstance();
      serialize::DeserializeFromString(NextPending(src_->pending_, &pos_),
                                       value.get());
      return value;
    }

   private:
    SingleGroupSource* src_;
    size_t pos_ = 0;
  };

  const Writable& value_proto_;
  std::string_view pending_;
  WritablePtr key_;
  bool consumed_ = false;
  Iter iter_{this};
};

/// Captures combiner output, re-serialized.
class CaptureCollector : public OutputCollector {
 public:
  explicit CaptureCollector(
      std::vector<std::pair<std::string, std::string>>* out)
      : out_(out) {}
  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    out_->emplace_back(serialize::SerializeToString(*key),
                       serialize::SerializeToString(*value));
  }

 private:
  std::vector<std::pair<std::string, std::string>>* out_;
};

}  // namespace

bool HashCombineCollector::Eligible(const JobConf& conf) {
  if (!conf.HasCombiner()) return false;
  if (conf.MapOutputKeyClass().empty() ||
      conf.MapOutputValueClass().empty()) {
    return false;
  }
  return std::string_view(GroupingComparator(conf)->Name()) ==
         serialize::BytesComparator::kName;
}

HashCombineCollector::HashCombineCollector(const JobConf& conf,
                                           OutputCollector* downstream,
                                           Reporter* reporter,
                                           std::atomic<int64_t>* memory_gauge)
    : conf_(conf),
      downstream_(downstream),
      sink_(dynamic_cast<SerializedPairSink*>(downstream)),
      reporter_(reporter),
      memory_gauge_(memory_gauge),
      budget_bytes_(static_cast<size_t>(
          knobs::Double(conf, conf::kMapHashCombineMemoryMb) *
          static_cast<double>(size_t{1} << 20))),
      slots_(64) {
  M3R_CHECK(Eligible(conf)) << "hash combine on an ineligible job";
  auto& registry = serialize::WritableRegistry::Instance();
  key_proto_ = registry.Create(conf.MapOutputKeyClass());
  value_proto_ = registry.Create(conf.MapOutputValueClass());
}

HashCombineCollector::~HashCombineCollector() {
  // Withdraw this table's contribution from the shared gauge.
  if (memory_gauge_ != nullptr && gauge_reported_ != 0) {
    memory_gauge_->fetch_add(-gauge_reported_, std::memory_order_relaxed);
  }
}

void HashCombineCollector::ReportGauge(bool force) {
  if (memory_gauge_ == nullptr) return;
  const int64_t delta = static_cast<int64_t>(bytes_) - gauge_reported_;
  if (delta == 0) return;
  // Every emit touching the engine-wide gauge would bounce its cache line
  // between the map strands; a step keeps the governor's view within
  // kGaugeStep of each table.
  if (!force && delta < kGaugeStep && delta > -kGaugeStep) return;
  memory_gauge_->fetch_add(delta, std::memory_order_relaxed);
  gauge_reported_ += delta;
}

void HashCombineCollector::Collect(const WritablePtr& key,
                                   const WritablePtr& value) {
  ++collected_;
  // Serialize immediately — the HMR contract lets the mapper reuse the
  // objects after this returns, so the table can only hold bytes.
  SerializeInto(*key, &key_buf_);
  SerializeInto(*value, &value_buf_);
  if (disabled_) {
    // Pass-through still goes via serialize/deserialize so downstream only
    // ever sees objects it may alias.
    EmitSerialized(key_buf_, value_buf_);
    return;
  }
  Insert(key_buf_, value_buf_);
  if (disabled_) {
    // A fold just proved the combiner non-conforming (or failed): release
    // everything still buffered and stay in pass-through mode.
    DrainTable();
    return;
  }
  if (bytes_ > budget_bytes_) {
    ++overflow_spills_;
    DrainTable();
    return;
  }
  ReportGauge(/*force=*/false);
}

void HashCombineCollector::Insert(std::string_view key_bytes,
                                  std::string_view value_bytes) {
  const uint64_t hash = HashBytes(key_bytes);
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  for (; slots_[slot].index >= 0; slot = (slot + 1) & mask) {
    if (slots_[slot].tag != tag) continue;
    Entry& e = entries_[static_cast<size_t>(slots_[slot].index)];
    if (e.key_bytes != key_bytes) continue;
    bytes_ += value_bytes.size() + kValueOverhead;
    PutPending(&e.pending, value_bytes);
    if (++e.count >= kFoldThreshold) FoldEntry(&e);
    return;
  }
  slots_[slot] = Slot{static_cast<int32_t>(entries_.size()), tag};
  Entry& e = entries_.emplace_back();
  e.hash = hash;
  e.key_bytes.assign(key_bytes);
  PutPending(&e.pending, value_bytes);
  e.count = 1;
  bytes_ += key_bytes.size() + kEntryOverhead + value_bytes.size() +
            kValueOverhead;
  if (entries_.size() * 4 >= slots_.size() * 3) Rehash(slots_.size() * 2);
}

void HashCombineCollector::Rehash(size_t new_slot_count) {
  slots_.assign(new_slot_count, Slot());
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t hash = entries_[i].hash;
    size_t slot = static_cast<size_t>(hash) & mask;
    while (slots_[slot].index >= 0) slot = (slot + 1) & mask;
    slots_[slot] = Slot{static_cast<int32_t>(i),
                        static_cast<uint32_t>(hash >> 32)};
  }
}

void HashCombineCollector::FoldEntry(Entry* entry) {
  if (entry->count < 2 || disabled_ || !deferred_.ok()) return;
  const size_t old_bytes = entry->payload() + entry->count * kValueOverhead;
  SingleGroupSource group(*key_proto_, *value_proto_, entry->key_bytes,
                          entry->pending);
  std::vector<std::pair<std::string, std::string>> combined;
  CaptureCollector capture(&combined);
  combine_input_ += entry->count;
  Status st = RunCombine(conf_, group, capture, *reporter_);
  if (!st.ok()) {
    // Remember the failure for Flush(); the pending raw values stay in the
    // table and will drain uncombined (harmless — the job is failing).
    deferred_ = std::move(st);
    disabled_ = true;
    return;
  }
  combine_output_ += combined.size();
  combine_completed_ = true;
  entry->pending.clear();  // keeps its capacity for the next batch
  entry->count = 0;
  if (combined.size() == 1 && combined[0].first == entry->key_bytes) {
    // Conforming fold: the pair re-enters the table as the key's single
    // pending value, ready to absorb further emissions.
    bytes_ -= old_bytes;
    bytes_ += combined[0].second.size() + kValueOverhead;
    PutPending(&entry->pending, combined[0].second);
    entry->count = 1;
    return;
  }
  // The combiner re-keyed or fanned out: a byte-keyed table cannot merge
  // such output, so forward it and stop hash-combining for this task. The
  // caller (Collect or DrainTable) finishes draining — FoldEntry must not
  // reset the table mid-iteration.
  for (auto& [kb, vb] : combined) EmitSerialized(kb, vb);
  bytes_ -= old_bytes + entry->key_bytes.size() + kEntryOverhead;
  disabled_ = true;
}

void HashCombineCollector::EmitSerialized(std::string_view key_bytes,
                                          std::string_view value_bytes) {
  // The partitioner (and any object-level downstream) needs the pair as
  // objects; the bytes ride along so the shuffle need not rebuild them.
  WritablePtr key = key_proto_->NewInstance();
  serialize::DeserializeFromString(key_bytes, key.get());
  WritablePtr value = value_proto_->NewInstance();
  serialize::DeserializeFromString(value_bytes, value.get());
  ++emitted_;
  if (sink_ != nullptr) {
    sink_->CollectSerialized(key, value, key_bytes, value_bytes);
  } else {
    downstream_->Collect(key, value);
  }
}

void HashCombineCollector::DrainTable() {
  // Insertion order keeps the drain deterministic for a deterministic
  // mapper, independent of the hash function.
  for (Entry& entry : entries_) {
    if (entry.count > 1) FoldEntry(&entry);
    for (size_t pos = 0; pos < entry.pending.size();) {
      EmitSerialized(entry.key_bytes, NextPending(entry.pending, &pos));
    }
  }
  entries_.clear();
  slots_.assign(slots_.size(), Slot());
  bytes_ = 0;
  ReportGauge(/*force=*/true);
}

Status HashCombineCollector::Flush() {
  M3R_CHECK(!flushed_) << "HashCombineCollector flushed twice";
  flushed_ = true;
  DrainTable();
  // The folds only tallied the COMBINE_* counters. Post them once, before
  // the failure return, so a failing combine still reports its counts.
  if (combine_input_ != 0) {
    reporter_->IncrCounter(counters::kTaskGroup,
                           counters::kCombineInputRecords,
                           static_cast<int64_t>(combine_input_));
  }
  if (combine_completed_) {
    reporter_->IncrCounter(counters::kTaskGroup,
                           counters::kCombineOutputRecords,
                           static_cast<int64_t>(combine_output_));
  }
  if (!deferred_.ok()) return deferred_;
  // Downstream counted one MAP_OUTPUT_RECORDS per pair it saw; top the
  // counter up to one per mapper emission (Hadoop's definition).
  reporter_->IncrCounter(counters::kTaskGroup, counters::kMapOutputRecords,
                         static_cast<int64_t>(collected_) -
                             static_cast<int64_t>(emitted_));
  return Status::OK();
}

}  // namespace m3r::api

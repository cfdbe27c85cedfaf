#include "api/hash_combine.h"

#include <utility>

#include "api/counters.h"
#include "api/task_runner.h"
#include "common/logging.h"
#include "serialize/comparators.h"
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

/// GroupSource presenting exactly one group: a deserialized key plus its
/// pending serialized values, deserialized lazily as the combiner pulls.
/// Objects are fresh instances of the collector's resolved prototypes.
class SingleGroupSource : public GroupSource {
 public:
  SingleGroupSource(const Writable& key_proto, const Writable& value_proto,
                    std::string_view key_bytes,
                    const std::vector<std::string>* values)
      : value_proto_(value_proto), values_(values) {
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
    bool HasNext() override { return pos_ < src_->values_->size(); }
    WritablePtr Next() override {
      M3R_CHECK(HasNext()) << "values iterator exhausted";
      WritablePtr value = src_->value_proto_.NewInstance();
      serialize::DeserializeFromString((*src_->values_)[pos_++],
                                       value.get());
      return value;
    }

   private:
    SingleGroupSource* src_;
    size_t pos_ = 0;
  };

  const Writable& value_proto_;
  const std::vector<std::string>* values_;
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
      reporter_(reporter),
      memory_gauge_(memory_gauge),
      budget_bytes_(static_cast<size_t>(
          conf.GetDouble(conf::kMapHashCombineMemoryMb, 64.0) *
          static_cast<double>(size_t{1} << 20))),
      slots_(64, -1) {
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

void HashCombineCollector::ReportGauge() {
  if (memory_gauge_ == nullptr) return;
  int64_t now = static_cast<int64_t>(bytes_);
  if (now == gauge_reported_) return;
  memory_gauge_->fetch_add(now - gauge_reported_, std::memory_order_relaxed);
  gauge_reported_ = now;
}

void HashCombineCollector::Collect(const WritablePtr& key,
                                   const WritablePtr& value) {
  ++collected_;
  if (disabled_) {
    // Pass-through still goes via serialize/deserialize so downstream only
    // ever sees objects it may alias — the mapper is free to reuse `key`
    // and `value` the moment Collect returns.
    EmitSerialized(serialize::SerializeToString(*key),
                   serialize::SerializeToString(*value));
    return;
  }
  // Serialize immediately — the HMR contract lets the mapper reuse the
  // objects after this returns, so the table can only hold bytes.
  Insert(serialize::SerializeToString(*key),
         serialize::SerializeToString(*value));
  if (disabled_) {
    // A fold just proved the combiner non-conforming (or failed): release
    // everything still buffered and stay in pass-through mode.
    DrainTable();
    return;
  }
  if (bytes_ > budget_bytes_) {
    ++overflow_spills_;
    DrainTable();
  }
  ReportGauge();
}

void HashCombineCollector::Insert(std::string key_bytes,
                                  std::string value_bytes) {
  const uint64_t hash = HashBytes(key_bytes);
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (slots_[slot] >= 0) {
    Entry& e = entries_[static_cast<size_t>(slots_[slot])];
    if (e.hash == hash && e.key_bytes == key_bytes) {
      bytes_ += value_bytes.size() + kValueOverhead;
      e.values.push_back(std::move(value_bytes));
      if (e.values.size() >= kFoldThreshold) FoldEntry(&e);
      return;
    }
    slot = (slot + 1) & mask;
  }
  slots_[slot] = static_cast<int32_t>(entries_.size());
  Entry e;
  e.hash = hash;
  bytes_ += key_bytes.size() + kEntryOverhead + value_bytes.size() +
            kValueOverhead;
  e.key_bytes = std::move(key_bytes);
  e.values.push_back(std::move(value_bytes));
  entries_.push_back(std::move(e));
  if (entries_.size() * 4 >= slots_.size() * 3) Rehash(slots_.size() * 2);
}

void HashCombineCollector::Rehash(size_t new_slot_count) {
  slots_.assign(new_slot_count, -1);
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t slot = static_cast<size_t>(entries_[i].hash) & mask;
    while (slots_[slot] >= 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<int32_t>(i);
  }
}

void HashCombineCollector::FoldEntry(Entry* entry) {
  if (entry->values.size() < 2 || disabled_ || !deferred_.ok()) return;
  size_t old_bytes = 0;
  for (const std::string& v : entry->values) {
    old_bytes += v.size() + kValueOverhead;
  }
  SingleGroupSource group(*key_proto_, *value_proto_, entry->key_bytes,
                          &entry->values);
  std::vector<std::pair<std::string, std::string>> combined;
  CaptureCollector capture(&combined);
  combine_input_ += entry->values.size();
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
  if (combined.size() == 1 && combined[0].first == entry->key_bytes) {
    // Conforming fold: the pair re-enters the table as the key's single
    // pending value, ready to absorb further emissions.
    bytes_ -= old_bytes;
    bytes_ += combined[0].second.size() + kValueOverhead;
    entry->values.clear();
    entry->values.push_back(std::move(combined[0].second));
    return;
  }
  // The combiner re-keyed or fanned out: a byte-keyed table cannot merge
  // such output, so forward it and stop hash-combining for this task. The
  // caller (Collect or DrainTable) finishes draining — FoldEntry must not
  // reset the table mid-iteration.
  for (auto& [kb, vb] : combined) EmitSerialized(kb, vb);
  bytes_ -= old_bytes + entry->key_bytes.size() + kEntryOverhead;
  entry->values.clear();
  disabled_ = true;
}

void HashCombineCollector::EmitSerialized(std::string_view key_bytes,
                                          std::string_view value_bytes) {
  WritablePtr key = key_proto_->NewInstance();
  serialize::DeserializeFromString(key_bytes, key.get());
  WritablePtr value = value_proto_->NewInstance();
  serialize::DeserializeFromString(value_bytes, value.get());
  ++emitted_;
  downstream_->Collect(key, value);
}

void HashCombineCollector::DrainTable() {
  // Insertion order keeps the drain deterministic for a deterministic
  // mapper, independent of the hash function.
  for (Entry& entry : entries_) {
    if (entry.values.size() > 1) FoldEntry(&entry);
    for (const std::string& vb : entry.values) {
      EmitSerialized(entry.key_bytes, vb);
    }
    entry.values.clear();
  }
  entries_.clear();
  slots_.assign(slots_.size(), -1);
  bytes_ = 0;
}

Status HashCombineCollector::Flush() {
  M3R_CHECK(!flushed_) << "HashCombineCollector flushed twice";
  flushed_ = true;
  DrainTable();
  ReportGauge();
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

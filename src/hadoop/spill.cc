#include "hadoop/spill.h"

#include <algorithm>

#include "api/counters.h"
#include "common/sort.h"
#include "serialize/registry.h"

namespace m3r::hadoop {

namespace {

using api::KeyedPair;
using serialize::WritableRegistry;

/// Deserializes a sorted range of serialized records into KeyedPairs so the
/// combiner can run over them.
std::vector<KeyedPair> DeserializeRange(
    const api::JobConf& conf,
    const std::vector<std::pair<std::string, std::string>>& records) {
  std::string kt = conf.MapOutputKeyClass();
  std::string vt = conf.MapOutputValueClass();
  std::vector<KeyedPair> out;
  out.reserve(records.size());
  for (const auto& [kbytes, vbytes] : records) {
    KeyedPair p;
    p.key_bytes = kbytes;
    p.key = WritableRegistry::Instance().Create(kt);
    serialize::DeserializeFromString(kbytes, p.key.get());
    p.value = WritableRegistry::Instance().Create(vt);
    serialize::DeserializeFromString(vbytes, p.value.get());
    out.push_back(std::move(p));
  }
  return out;
}

/// Collector that re-serializes combiner output into a segment.
class SegmentCollector : public api::OutputCollector {
 public:
  explicit SegmentCollector(SegmentWriter* segment) : segment_(segment) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    segment_->Add(serialize::SerializeToString(*key),
                  serialize::SerializeToString(*value));
  }

 private:
  SegmentWriter* segment_;
};

}  // namespace

MapOutputBuffer::MapOutputBuffer(const api::JobConf& conf, int num_partitions,
                                 api::Reporter* reporter,
                                 const IntegrityContext* integrity)
    : conf_(conf),
      num_partitions_(num_partitions),
      reporter_(reporter),
      integrity_(integrity),
      partitioner_(api::MakePartitioner(conf)),
      sort_cmp_(api::SortComparator(conf)),
      buffer_limit_bytes_(static_cast<uint64_t>(
          conf.GetInt(kSortBufferBytesKey, kDefaultSortBufferBytes))) {}

void MapOutputBuffer::Collect(const api::WritablePtr& key,
                              const api::WritablePtr& value) {
  // The HMR contract: output is serialized immediately, so the caller is
  // free to mutate and reuse the objects afterwards.
  BufferedRecord rec;
  rec.partition = num_partitions_ > 0
                      ? partitioner_->GetPartition(*key, *value,
                                                   num_partitions_)
                      : 0;
  M3R_CHECK(rec.partition >= 0 &&
            (num_partitions_ == 0 || rec.partition < num_partitions_))
      << "partitioner returned " << rec.partition;
  rec.key = serialize::SerializeToString(*key);
  rec.value = serialize::SerializeToString(*value);
  buffered_bytes_ += rec.key.size() + rec.value.size();
  total_output_bytes_ += rec.key.size() + rec.value.size();
  ++total_records_;
  buffer_.push_back(std::move(rec));
  reporter_->IncrCounter(api::counters::kTaskGroup,
                         api::counters::kMapOutputRecords, 1);
  if (buffered_bytes_ >= buffer_limit_bytes_) SortAndSpill();
}

void MapOutputBuffer::Flush() {
  if (!buffer_.empty() || spills_.empty()) SortAndSpill();
}

void MapOutputBuffer::SortAndSpill() {
  // Hadoop's in-buffer (partition, key) sort before spilling. The
  // partition component is a stable counting sort (partitions are small
  // dense ints); keys within each partition bucket go through the shared
  // prefix kernel, hitting the virtual comparator only for non-default
  // sort orders.
  const size_t parts = static_cast<size_t>(std::max(num_partitions_, 1));
  std::vector<uint32_t> offsets(parts + 1, 0);
  for (const BufferedRecord& r : buffer_) {
    ++offsets[static_cast<size_t>(r.partition) + 1];
  }
  for (size_t p = 0; p < parts; ++p) offsets[p + 1] += offsets[p];
  std::vector<uint32_t> order(buffer_.size());
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (uint32_t i = 0; i < buffer_.size(); ++i) {
      order[cursor[static_cast<size_t>(buffer_[i].partition)]++] = i;
    }
  }
  const bool bytes_order =
      std::string_view(sort_cmp_->Name()) == serialize::BytesComparator::kName;
  sortkit::RawCompareFn custom;
  if (!bytes_order) {
    custom = [this](std::string_view a, std::string_view b) {
      return sort_cmp_->Compare(a, b);
    };
  }
  std::vector<std::string_view> keys;
  for (size_t p = 0; p < parts; ++p) {
    const size_t lo = offsets[p];
    const size_t hi = offsets[p + 1];
    if (hi - lo < 2) continue;
    keys.clear();
    keys.reserve(hi - lo);
    for (size_t k = lo; k < hi; ++k) {
      keys.emplace_back(buffer_[order[k]].key);
    }
    sortkit::SortOptions kopts;  // per-spill sorts stay on the task thread
    if (!bytes_order) kopts.comparator = &custom;
    std::vector<uint32_t> perm = sortkit::StableSortPermutation(keys, kopts);
    sort_work_.Add(sim::CpuLayer::kSort, keys.size(), 0);
    std::vector<uint32_t> sorted(hi - lo);
    for (size_t j = 0; j < perm.size(); ++j) sorted[j] = order[lo + perm[j]];
    std::copy(sorted.begin(), sorted.end(),
              order.begin() + static_cast<ptrdiff_t>(lo));
  }

  Spill spill;
  spill.partition_segments.resize(parts);
  bool combine = conf_.HasCombiner();
  for (size_t p = 0; p < parts; ++p) {
    const size_t lo = offsets[p];
    const size_t hi = offsets[p + 1];
    if (lo == hi) continue;

    SegmentWriter segment;
    if (combine) {
      std::vector<std::pair<std::string, std::string>> records;
      records.reserve(hi - lo);
      for (size_t k = lo; k < hi; ++k) {
        records.emplace_back(buffer_[order[k]].key, buffer_[order[k]].value);
      }
      std::vector<KeyedPair> pairs = DeserializeRange(conf_, records);
      uint64_t range_bytes = 0;
      for (const auto& [key, value] : records) {
        range_bytes += key.size() + value.size();
      }
      spill_work_.Add(sim::CpuLayer::kDecode, pairs.size(), range_bytes);
      spill_work_.Add(sim::CpuLayer::kReduce, pairs.size(), 0);
      reporter_->IncrCounter(api::counters::kTaskGroup,
                             api::counters::kCombineInputRecords,
                             static_cast<int64_t>(pairs.size()));
      api::SortedPairsGroupSource groups(sort_cmp_, &pairs);
      SegmentCollector collector(&segment);
      M3R_CHECK_OK(api::RunCombine(conf_, groups, collector, *reporter_));
      reporter_->IncrCounter(api::counters::kTaskGroup,
                             api::counters::kCombineOutputRecords,
                             static_cast<int64_t>(segment.records()));
    } else {
      for (size_t k = lo; k < hi; ++k) {
        segment.Add(buffer_[order[k]].key, buffer_[order[k]].value);
      }
    }
    spill.records += segment.records();
    spill.bytes += segment.size();
    spill_work_.Add(sim::CpuLayer::kEmit, segment.records(), segment.size());
    spill.partition_segments[p] = segment.Take();
  }

  spilled_records_ += spill.records;
  if (integrity_ != nullptr && integrity_->enabled()) {
    spill.segment_crcs.reserve(spill.partition_segments.size());
    for (const std::string& segment : spill.partition_segments) {
      spill.segment_crcs.push_back(StampCrc(integrity_, segment));
    }
  }
  reporter_->IncrCounter(api::counters::kTaskGroup,
                         api::counters::kSpilledRecords,
                         static_cast<int64_t>(spill.records));
  spills_.push_back(std::move(spill));
  buffer_.clear();
  buffered_bytes_ = 0;
}

}  // namespace m3r::hadoop

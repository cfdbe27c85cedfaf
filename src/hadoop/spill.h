#ifndef M3R_HADOOP_SPILL_H_
#define M3R_HADOOP_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/job_conf.h"
#include "api/mr_api.h"
#include "api/task_runner.h"
#include "common/integrity.h"
#include "serialize/comparators.h"
#include "serialize/io.h"
#include "sim/cost_model.h"

namespace m3r::hadoop {

/// One serialized map-output record.
struct Record {
  std::string key;
  std::string value;
};

/// Byte format for one sorted run of records belonging to one partition:
/// repeated (varint key length, key bytes, varint value length, value
/// bytes). This is the unit stored in spill files, transferred in the
/// shuffle, and merged on the reduce side.
class SegmentWriter {
 public:
  void Add(std::string_view key, std::string_view value) {
    out_.WriteString(key);
    out_.WriteString(value);
    ++records_;
  }
  std::string Take() { return out_.Take(); }
  uint64_t size() const { return out_.size(); }
  uint64_t records() const { return records_; }

 private:
  serialize::DataOutput out_;
  uint64_t records_ = 0;
};

/// Streams records back out of a segment buffer.
class SegmentReader {
 public:
  explicit SegmentReader(const std::string* bytes)
      : bytes_(bytes), in_(*bytes) {}
  bool Next(std::string_view* key, std::string_view* value) {
    if (in_.AtEnd()) return false;
    *key = in_.ReadStringView();
    *value = in_.ReadStringView();
    return true;
  }

 private:
  const std::string* bytes_;
  serialize::DataInput in_;
};

/// One spill: per-partition sorted segments plus the byte total, the result
/// of sorting (and combining) a full in-memory map-output buffer and
/// "writing it to local disk" (the bytes live in memory; the disk cost is
/// charged by the engine).
struct Spill {
  std::vector<std::string> partition_segments;
  /// CRC32C per partition segment, stamped at spill-write time under the
  /// job's integrity context (empty when integrity is off).
  std::vector<uint32_t> segment_crcs;
  uint64_t bytes = 0;
  uint64_t records = 0;
};

/// Hadoop's map-side collector: serializes every collected pair
/// immediately (the API contract that forces object-reuse semantics),
/// buffers records per partition, and sorts+spills when the buffer exceeds
/// io.sort.mb. The job's combiner runs on every spill. Under a non-null
/// integrity context each spilled segment is CRC32C-stamped, like the
/// checksums Hadoop writes next to intermediate files.
class MapOutputBuffer : public api::OutputCollector {
 public:
  MapOutputBuffer(const api::JobConf& conf, int num_partitions,
                  api::Reporter* reporter,
                  const IntegrityContext* integrity = nullptr);

  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override;

  /// Final sort/combine/spill of the residual buffer.
  void Flush();

  /// Spills produced (in order). Valid after Flush().
  std::vector<Spill>& spills() { return spills_; }

  uint64_t total_output_bytes() const { return total_output_bytes_; }
  uint64_t total_records() const { return total_records_; }
  uint64_t spilled_records() const { return spilled_records_; }
  /// The per-spill key sorts, one per partition bucket; the engine charges
  /// them to the `sort` phase instead of the task's own compute.
  const sim::CpuWork& sort_work() const { return sort_work_; }
  /// The spills' own work besides the sorts: each combine's decode and
  /// combiner input, and the sorted segments written.
  const sim::CpuWork& spill_work() const { return spill_work_; }

 private:
  struct BufferedRecord {
    int partition;
    std::string key;
    std::string value;
  };

  void SortAndSpill();

  const api::JobConf& conf_;
  int num_partitions_;
  api::Reporter* reporter_;
  const IntegrityContext* integrity_;
  std::shared_ptr<api::Partitioner> partitioner_;
  serialize::RawComparatorPtr sort_cmp_;
  uint64_t buffer_limit_bytes_;

  std::vector<BufferedRecord> buffer_;
  sim::CpuWork sort_work_;
  sim::CpuWork spill_work_;
  uint64_t buffered_bytes_ = 0;
  uint64_t total_output_bytes_ = 0;
  uint64_t total_records_ = 0;
  uint64_t spilled_records_ = 0;
  std::vector<Spill> spills_;
};

/// Configuration key for the map-side sort buffer size in bytes
/// (io.sort.mb in Hadoop; scaled default 1 MiB here).
inline constexpr char kSortBufferBytesKey[] = "hadoop.io.sort.buffer.bytes";
inline constexpr uint64_t kDefaultSortBufferBytes = 1 << 20;

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_SPILL_H_

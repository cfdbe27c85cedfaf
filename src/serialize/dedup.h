#ifndef M3R_SERIALIZE_DEDUP_H_
#define M3R_SERIALIZE_DEDUP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serialize/registry.h"
#include "serialize/writable.h"

namespace m3r::serialize {

/// De-duplication policy for an object stream (paper §3.2.2.3 / §6.3).
enum class DedupMode {
  /// No identity tracking: every occurrence is serialized in full.
  kOff,
  /// X10-style: every object ever written to this stream is remembered; a
  /// repeat writes only a back-reference. This is what gives M3R free
  /// de-duplication of broadcast values, at the cost of keeping all written
  /// objects alive for the stream's lifetime (the memory overhead the paper
  /// discusses for WordCount).
  kFull,
  /// The relaxation proposed as future work in §6.3: "only check
  /// consecutive key/value pairs from the same mapper". Implemented as a
  /// four-object look-back window (the previous pair plus the current
  /// one), which still captures the broadcast-in-a-loop idiom with O(1)
  /// memory instead of pinning every object ever written.
  kConsecutive,
};

/// Serializes a sequence of Writable objects with identity de-duplication,
/// modelling the X10 serialization protocol used by `at (p) S`.
///
/// Wire format per object: a tag byte (kNew/kRef), then either a type id +
/// field bytes, or a varint back-reference index. Type names are written
/// once and then referenced by id (a per-stream string table).
class DedupOutputStream {
 public:
  explicit DedupOutputStream(DedupMode mode) : mode_(mode) {}
  /// Starts the stream on a recycled buffer (capacity reuse via
  /// BufferPool); contents of `recycled` are discarded.
  DedupOutputStream(DedupMode mode, std::string recycled) : mode_(mode) {
    out_.Adopt(std::move(recycled));
  }

  /// Appends `obj` to the stream. Identity (pointer equality) triggers
  /// de-duplication, mirroring X10's heap-graph serializer.
  void WriteObject(const WritablePtr& obj);

  /// Appends an object given as its type's registry name (TypeName()) and
  /// its serialized fields: exactly the bytes WriteObject writes for an
  /// object this stream has never seen. The object is taken to be fresh —
  /// no one else may write it — so it enters no identity table and is not
  /// pinned; kConsecutive gives it a window slot no object can match.
  void WriteSerialized(const char* type_name, std::string_view bytes);

  /// Writes a raw control varint (e.g. the destination partition of the
  /// following key/value pair). The reader must consume it with
  /// ReadControl() at the matching position.
  void WriteControl(uint64_t v) { out_.WriteVarU64(v); }

  /// Bytes produced so far.
  const std::string& buffer() const { return out_.buffer(); }
  std::string TakeBuffer() { return out_.Take(); }

  /// Number of objects written (including de-duplicated repeats).
  uint64_t objects_written() const { return objects_written_; }
  /// Repeats that were encoded as back-references instead of full bytes.
  uint64_t objects_deduped() const { return objects_deduped_; }
  /// Approximate bytes that de-duplication avoided serializing.
  uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  struct Slot {
    const Writable* obj = nullptr;  // null: empty slot
    uint64_t index = 0;
  };

  /// kFull identity table lookup: the stream index `obj` was written at,
  /// or null when it was never written.
  const uint64_t* FindSeen(const Writable* obj) const;
  void InsertSeen(const Writable* obj, uint64_t index);
  /// Stream type id for `name`; `*first` is set on the name's first use.
  uint32_t TypeIdFor(const char* name, bool* first);
  /// Writes a new object's tag and type reference (the name on its first
  /// use in this stream).
  void WriteNewHeader(const char* type_name);

  DedupMode mode_;
  DataOutput out_;
  /// kFull: open-addressed (linear probing) identity table. Capacity is a
  /// power of two, kept at most three quarters full, so a lane's table is
  /// no larger than the node-based map it replaces.
  std::vector<Slot> seen_;
  size_t seen_count_ = 0;
  /// Type ids by TypeName() pointer (the common case, no string built),
  /// backed by the name map for distinct pointers to equal names.
  std::vector<std::pair<const char*, uint32_t>> type_ptrs_;
  std::unordered_map<std::string, uint32_t> type_ids_;
  std::vector<WritablePtr> pinned_;  // keeps deduped objects alive (kFull)
  /// kConsecutive look-back window: (object, stream index) of the last
  /// few fully-serialized objects.
  static constexpr size_t kWindow = 4;
  std::pair<WritablePtr, uint64_t> recent_[kWindow];
  size_t recent_pos_ = 0;
  uint64_t next_index_ = 0;
  uint64_t objects_written_ = 0;
  uint64_t objects_deduped_ = 0;
  uint64_t bytes_saved_ = 0;
};

/// Deserializes a DedupOutputStream buffer. Back-references reconstruct
/// *aliases*: the same shared_ptr is returned for each repeat, exactly as
/// X10 deserialization produces multiple aliases of one copy (paper
/// §3.2.2.3).
///
/// One stream is read either as objects (ReadObject) or as byte spans
/// (ReadObjectBytes), not both: back-reference indices count whichever
/// reader the stream started with.
class DedupInputStream {
 public:
  /// Owns `buffer`.
  explicit DedupInputStream(std::string buffer);
  /// Reads `buffer` in place; it must outlive this stream and every span
  /// ReadObjectBytes returns.
  explicit DedupInputStream(std::string_view buffer);
  DedupInputStream(const DedupInputStream&) = delete;
  DedupInputStream& operator=(const DedupInputStream&) = delete;

  /// Reads the next object, or nullptr at end of stream.
  WritablePtr ReadObject();

  /// Reads the next object's field bytes without materializing it: `*bytes`
  /// is the sender's own serialization (a view into the buffer) and
  /// `*type_id` indexes TypeName(). The extent is found by reading the
  /// fields into one scratch instance per type id; a back-reference
  /// returns the span recorded for the referenced object. Returns false at
  /// end of stream.
  bool ReadObjectBytes(std::string_view* bytes, uint32_t* type_id);

  /// Registry name of a type id seen so far in this stream.
  const std::string& TypeName(uint32_t type_id) const {
    return types_[type_id];
  }

  /// Reads a control varint written by WriteControl().
  uint64_t ReadControl() { return in_.ReadVarU64(); }

  bool AtEnd() const { return in_.AtEnd(); }

 private:
  /// Reads a full object's type header; returns its type id.
  uint32_t ReadTypeHeader(uint8_t tag);

  struct Span {
    std::string_view bytes;
    uint32_t type_id = 0;
  };

  std::string owned_;
  std::string_view view_;
  DataInput in_;
  std::vector<WritablePtr> objects_;
  std::vector<Span> spans_;
  std::vector<std::string> types_;
  std::vector<WritablePtr> scratch_;  // per type id, ReadObjectBytes only
};

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_DEDUP_H_

#include "serialize/dedup.h"

namespace m3r::serialize {

namespace {
constexpr uint8_t kNew = 0;
constexpr uint8_t kRef = 1;
constexpr uint8_t kNewType = 2;  // kNew + first occurrence of the type name

constexpr size_t kInitialSeenSlots = 64;

/// Fibonacci hash of an object address; heap pointers share their low
/// alignment bits, so the multiply spreads the high ones.
size_t SlotOf(const Writable* obj, size_t mask) {
  const uint64_t h =
      (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(obj)) >> 4) *
      0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(h >> 32) & mask;
}
}  // namespace

const uint64_t* DedupOutputStream::FindSeen(const Writable* obj) const {
  if (seen_.empty()) return nullptr;
  const size_t mask = seen_.size() - 1;
  for (size_t slot = SlotOf(obj, mask);; slot = (slot + 1) & mask) {
    const Slot& s = seen_[slot];
    if (s.obj == obj) return &s.index;
    if (s.obj == nullptr) return nullptr;
  }
}

void DedupOutputStream::InsertSeen(const Writable* obj, uint64_t index) {
  if ((seen_count_ + 1) * 4 > seen_.size() * 3) {
    std::vector<Slot> old = std::move(seen_);
    seen_.assign(old.empty() ? kInitialSeenSlots : old.size() * 2, Slot());
    const size_t mask = seen_.size() - 1;
    for (const Slot& s : old) {
      if (s.obj == nullptr) continue;
      size_t slot = SlotOf(s.obj, mask);
      while (seen_[slot].obj != nullptr) slot = (slot + 1) & mask;
      seen_[slot] = s;
    }
  }
  const size_t mask = seen_.size() - 1;
  size_t slot = SlotOf(obj, mask);
  while (seen_[slot].obj != nullptr) slot = (slot + 1) & mask;
  seen_[slot] = Slot{obj, index};
  ++seen_count_;
}

uint32_t DedupOutputStream::TypeIdFor(const char* name, bool* first) {
  *first = false;
  for (const auto& [ptr, id] : type_ptrs_) {
    if (ptr == name) return id;
  }
  auto [it, inserted] = type_ids_.emplace(
      name, static_cast<uint32_t>(type_ids_.size()));
  *first = inserted;
  type_ptrs_.emplace_back(name, it->second);
  return it->second;
}

void DedupOutputStream::WriteNewHeader(const char* type_name) {
  bool first = false;
  const uint32_t tid = TypeIdFor(type_name, &first);
  if (first) {
    out_.WriteByte(kNewType);
    out_.WriteString(type_name);
  } else {
    out_.WriteByte(kNew);
    out_.WriteVarU64(tid);
  }
}

void DedupOutputStream::WriteSerialized(const char* type_name,
                                        std::string_view bytes) {
  ++objects_written_;
  WriteNewHeader(type_name);
  out_.WriteRaw(bytes.data(), bytes.size());
  if (mode_ == DedupMode::kConsecutive) {
    // The slot still ages out a window entry, as WriteObject's would.
    recent_[recent_pos_] = {nullptr, next_index_};
    recent_pos_ = (recent_pos_ + 1) % kWindow;
  }
  ++next_index_;
}

void DedupOutputStream::WriteObject(const WritablePtr& obj) {
  ++objects_written_;
  if (mode_ != DedupMode::kOff) {
    if (mode_ == DedupMode::kFull) {
      if (const uint64_t* index = FindSeen(obj.get())) {
        out_.WriteByte(kRef);
        out_.WriteVarU64(*index);
        ++objects_deduped_;
        bytes_saved_ += obj->SerializedSize();
        return;
      }
    } else {  // kConsecutive: look back one pair's worth of objects
      for (size_t i = 0; i < kWindow; ++i) {
        if (recent_[i].first.get() == obj.get()) {
          out_.WriteByte(kRef);
          out_.WriteVarU64(recent_[i].second);
          ++objects_deduped_;
          bytes_saved_ += obj->SerializedSize();
          // Refresh recency so a value repeated every pair stays resident.
          std::pair<WritablePtr, uint64_t> entry = recent_[i];
          recent_[recent_pos_] = std::move(entry);
          recent_pos_ = (recent_pos_ + 1) % kWindow;
          return;
        }
      }
    }
  }

  WriteNewHeader(obj->TypeName());
  obj->Write(out_);

  if (mode_ == DedupMode::kFull) {
    InsertSeen(obj.get(), next_index_);
    pinned_.push_back(obj);
  } else if (mode_ == DedupMode::kConsecutive) {
    recent_[recent_pos_] = {obj, next_index_};
    recent_pos_ = (recent_pos_ + 1) % kWindow;
  }
  ++next_index_;
}

DedupInputStream::DedupInputStream(std::string buffer)
    : owned_(std::move(buffer)), view_(owned_), in_(view_) {}

DedupInputStream::DedupInputStream(std::string_view buffer)
    : view_(buffer), in_(view_) {}

uint32_t DedupInputStream::ReadTypeHeader(uint8_t tag) {
  if (tag == kNewType) {
    types_.push_back(in_.ReadString());
    return static_cast<uint32_t>(types_.size() - 1);
  }
  M3R_CHECK(tag == kNew) << "bad stream tag " << int(tag);
  uint64_t tid = in_.ReadVarU64();
  M3R_CHECK(tid < types_.size()) << "bad type id";
  return static_cast<uint32_t>(tid);
}

WritablePtr DedupInputStream::ReadObject() {
  if (in_.AtEnd()) return nullptr;
  M3R_CHECK(spans_.empty()) << "object read on a byte-span stream";
  uint8_t tag = in_.ReadByte();
  if (tag == kRef) {
    uint64_t index = in_.ReadVarU64();
    M3R_CHECK(index < objects_.size()) << "bad back-reference";
    return objects_[index];
  }
  const uint32_t tid = ReadTypeHeader(tag);
  WritablePtr obj = WritableRegistry::Instance().Create(types_[tid]);
  obj->ReadFields(in_);
  objects_.push_back(obj);
  return obj;
}

bool DedupInputStream::ReadObjectBytes(std::string_view* bytes,
                                       uint32_t* type_id) {
  if (in_.AtEnd()) return false;
  M3R_CHECK(objects_.empty()) << "byte-span read on an object stream";
  uint8_t tag = in_.ReadByte();
  if (tag == kRef) {
    uint64_t index = in_.ReadVarU64();
    M3R_CHECK(index < spans_.size()) << "bad back-reference";
    *bytes = spans_[index].bytes;
    *type_id = spans_[index].type_id;
    return true;
  }
  const uint32_t tid = ReadTypeHeader(tag);
  if (scratch_.size() <= tid) scratch_.resize(tid + 1);
  WritablePtr& scratch = scratch_[tid];
  if (scratch == nullptr) {
    scratch = WritableRegistry::Instance().Create(types_[tid]);
  }
  const size_t start = in_.position();
  scratch->ReadFields(in_);
  *bytes = view_.substr(start, in_.position() - start);
  *type_id = tid;
  spans_.push_back(Span{*bytes, tid});
  return true;
}

}  // namespace m3r::serialize

#ifndef M3R_SERIALIZE_WRITABLE_H_
#define M3R_SERIALIZE_WRITABLE_H_

#include <memory>
#include <string>
#include <string_view>

#include "serialize/io.h"

namespace m3r::serialize {

class Writable;
using WritablePtr = std::shared_ptr<Writable>;

/// C++ port of Hadoop's Writable/WritableComparable contract.
///
/// Keys and values flowing through either engine implement this interface.
/// The engines treat instances as *mutable, reusable* objects — exactly like
/// Hadoop: RecordReaders fill the same instance repeatedly, and mapper output
/// may be mutated by the caller after collect() unless the producing class
/// implements the ImmutableOutput marker (see api/extensions.h).
class Writable {
 public:
  virtual ~Writable() = default;

  /// Serializes this object's fields.
  virtual void Write(DataOutput& out) const = 0;
  /// Overwrites this object's fields from the stream.
  virtual void ReadFields(DataInput& in) = 0;

  /// Stable registry name; must match the name this type was registered
  /// under (see registry.h). Used in self-describing streams, which cache
  /// type ids by this pointer, so it must stay valid for the program's life.
  virtual const char* TypeName() const = 0;

  /// Fresh default-constructed instance of the dynamic type.
  virtual WritablePtr NewInstance() const = 0;

  /// Total order among objects of the same dynamic type
  /// (WritableComparable). Default compares serialized bytes
  /// lexicographically, which is correct for big-endian numerics and Text.
  virtual int CompareTo(const Writable& other) const;

  /// Hash consistent with CompareTo()==0. Default hashes serialized bytes.
  virtual size_t HashCode() const;

  virtual bool Equals(const Writable& other) const {
    return CompareTo(other) == 0;
  }

  /// Human-readable rendering used by TextOutputFormat.
  virtual std::string ToString() const;

  /// Deep copy via serialization round-trip. Subclasses may override with a
  /// cheaper implementation. This is the clone M3R performs for outputs of
  /// classes that do not promise ImmutableOutput.
  virtual WritablePtr Clone() const;

  /// Serialized size in bytes (serializes to count; override if cheap).
  virtual size_t SerializedSize() const;
};

/// CRTP helper providing TypeName/NewInstance from a static `kTypeName`.
template <typename Derived>
class WritableBase : public Writable {
 public:
  const char* TypeName() const override { return Derived::kTypeName; }
  WritablePtr NewInstance() const override {
    return std::make_shared<Derived>();
  }
};

/// Serializes `w` (fields only, no type tag) into a fresh buffer.
std::string SerializeToString(const Writable& w);

/// Deserializes fields into `w` from `bytes` (must consume exactly all).
void DeserializeFromString(std::string_view bytes, Writable* w);

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_WRITABLE_H_

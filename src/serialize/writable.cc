#include "serialize/writable.h"

#include <functional>

namespace m3r::serialize {

int Writable::CompareTo(const Writable& other) const {
  std::string a = SerializeToString(*this);
  std::string b = SerializeToString(other);
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Writable::HashCode() const {
  return std::hash<std::string>()(SerializeToString(*this));
}

std::string Writable::ToString() const {
  std::string bytes = SerializeToString(*this);
  std::string hex;
  hex.reserve(bytes.size() * 2);
  static const char kDigits[] = "0123456789abcdef";
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

WritablePtr Writable::Clone() const {
  WritablePtr copy = NewInstance();
  std::string bytes = SerializeToString(*this);
  DeserializeFromString(bytes, copy.get());
  return copy;
}

size_t Writable::SerializedSize() const {
  return SerializeToString(*this).size();
}

std::string SerializeToString(const Writable& w) {
  DataOutput out;
  w.Write(out);
  return out.Take();
}

void DeserializeFromString(std::string_view bytes, Writable* w) {
  DataInput in(bytes);
  w->ReadFields(in);
  M3R_CHECK(in.AtEnd()) << "trailing bytes deserializing " << w->TypeName();
}

}  // namespace m3r::serialize

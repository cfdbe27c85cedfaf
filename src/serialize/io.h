#ifndef M3R_SERIALIZE_IO_H_
#define M3R_SERIALIZE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.h"

namespace m3r::serialize {

/// Longest LEB128 encoding of a 64-bit value: ceil(64 / 7) groups.
inline constexpr size_t kMaxVarintBytes = 10;

/// Converts between host order and the big-endian wire order (an
/// involution, so it also converts back).
template <typename T>
inline T ToBigEndian(T v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

/// Append-only binary output buffer with Hadoop DataOutput-style primitives.
/// Multi-byte integers are written big-endian, matching Hadoop's wire format
/// so that raw-byte key comparison orders numbers numerically.
class DataOutput {
 public:
  DataOutput() = default;
  explicit DataOutput(std::string* external) : external_(external) {}

  void WriteByte(uint8_t b) { Buf().push_back(static_cast<char>(b)); }
  void WriteBool(bool b) { WriteByte(b ? 1 : 0); }

  void WriteU16(uint16_t v) {
    char b[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
    Buf().append(b, 2);
  }
  void WriteU32(uint32_t v) {
    v = ToBigEndian(v);
    Buf().append(reinterpret_cast<const char*>(&v), 4);
  }
  void WriteU64(uint64_t v) {
    v = ToBigEndian(v);
    Buf().append(reinterpret_cast<const char*>(&v), 8);
  }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  void WriteFloat(float f) {
    uint32_t v;
    std::memcpy(&v, &f, sizeof(v));
    WriteU32(v);
  }
  void WriteDouble(double d) {
    uint64_t v;
    std::memcpy(&v, &d, sizeof(v));
    WriteU64(v);
  }

  /// Variable-length unsigned int, LEB128-style (1 byte for values < 128).
  void WriteVarU64(uint64_t v) {
    char b[kMaxVarintBytes];
    Buf().append(b, PutVarU64(v, b));
  }
  /// Zig-zag encoded signed variant.
  void WriteVarI64(int64_t v) {
    WriteVarU64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed byte string.
  void WriteString(std::string_view s) {
    WriteVarU64(s.size());
    Buf().append(s.data(), s.size());
  }
  void WriteRaw(const void* data, size_t n) {
    Buf().append(static_cast<const char*>(data), n);
  }

  /// Array primitives: the bytes of WriteVarU64 / WriteDouble called on
  /// each element in turn (a signed element is widened to 64 bits first,
  /// so a negative int32 takes ten bytes), but the buffer grows once per
  /// array and the elements are written through a pointer. The varint
  /// writer grows by the worst case and trims to what it wrote.
  template <typename Int>
  void WriteVarU64Array(const Int* v, size_t n) {
    static_assert(std::is_integral_v<Int>);
    std::string& buf = Buf();
    const size_t start = buf.size();
    buf.resize(start + n * kMaxVarintBytes);
    char* p = buf.data() + start;
    for (size_t i = 0; i < n; ++i) {
      p += PutVarU64(static_cast<uint64_t>(v[i]), p);
    }
    buf.resize(static_cast<size_t>(p - buf.data()));
  }
  void WriteDoubleArray(const double* v, size_t n) {
    std::string& buf = Buf();
    const size_t start = buf.size();
    buf.resize(start + n * 8);
    char* p = buf.data() + start;
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &v[i], 8);
      bits = ToBigEndian(bits);
      std::memcpy(p + i * 8, &bits, 8);
    }
  }

  size_t size() const { return Buf().size(); }
  const std::string& buffer() const { return Buf(); }
  std::string Take() { return std::move(Buf()); }
  void Clear() { Buf().clear(); }

  /// Seeds the owned buffer with `buffer`'s allocation (cleared) — the hook
  /// that lets a pooled buffer's capacity be reused across streams. Only
  /// valid for owned-buffer streams.
  void Adopt(std::string buffer) {
    M3R_CHECK(external_ == nullptr) << "Adopt on an external-buffer stream";
    owned_ = std::move(buffer);
    owned_.clear();
  }

 private:
  /// LEB128-encodes `v` into `out` (room for kMaxVarintBytes); returns the
  /// byte count.
  static size_t PutVarU64(uint64_t v, char* out) {
    size_t n = 0;
    while (v >= 0x80) {
      out[n++] = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out[n++] = static_cast<char>(v);
    return n;
  }

  std::string& Buf() { return external_ ? *external_ : owned_; }
  const std::string& Buf() const { return external_ ? *external_ : owned_; }

  std::string owned_;
  std::string* external_ = nullptr;
};

/// Cursor over a byte span, mirroring DataOutput. Bounds violations are
/// engine bugs (corrupted shuffle/spill data) and abort via M3R_CHECK.
class DataInput {
 public:
  DataInput(const char* data, size_t size) : data_(data), size_(size) {}
  explicit DataInput(std::string_view s) : DataInput(s.data(), s.size()) {}

  uint8_t ReadByte() {
    M3R_CHECK(pos_ < size_) << "DataInput overrun";
    return static_cast<uint8_t>(data_[pos_++]);
  }
  bool ReadBool() { return ReadByte() != 0; }

  uint16_t ReadU16() {
    uint16_t hi = ReadByte();
    return static_cast<uint16_t>((hi << 8) | ReadByte());
  }
  uint32_t ReadU32() {
    uint32_t v;
    std::memcpy(&v, Consume(4), 4);
    return ToBigEndian(v);
  }
  uint64_t ReadU64() {
    uint64_t v;
    std::memcpy(&v, Consume(8), 8);
    return ToBigEndian(v);
  }
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }

  float ReadFloat() {
    uint32_t v = ReadU32();
    float f;
    std::memcpy(&f, &v, sizeof(f));
    return f;
  }
  double ReadDouble() {
    uint64_t v = ReadU64();
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
  }

  uint64_t ReadVarU64() {
    // Most varints are lengths and small ids: one byte, one check.
    if (pos_ < size_ && !(data_[pos_] & 0x80)) {
      return static_cast<uint8_t>(data_[pos_++]);
    }
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      uint8_t b = ReadByte();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
      M3R_CHECK(shift < 64) << "varint too long";
    }
  }
  int64_t ReadVarI64() {
    uint64_t v = ReadVarU64();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  std::string ReadString() {
    size_t n = ReadVarU64();
    M3R_CHECK(pos_ + n <= size_) << "string overrun";
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }
  std::string_view ReadStringView() {
    size_t n = ReadVarU64();
    M3R_CHECK(pos_ + n <= size_) << "string overrun";
    std::string_view s(data_ + pos_, n);
    pos_ += n;
    return s;
  }
  void ReadRaw(void* out, size_t n) {
    M3R_CHECK(pos_ + n <= size_) << "raw overrun";
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// Array readers, the inverse of DataOutput's array writers. Doubles
  /// take one bounds check per array. Varints skip the per-byte check
  /// while a worst-case varint still fits in what remains, and fall back
  /// to ReadVarU64 over the last kMaxVarintBytes; both paths abort on a
  /// varint longer than ten bytes.
  template <typename Int>
  void ReadVarU64Array(Int* out, size_t n) {
    static_assert(std::is_integral_v<Int>);
    const auto* bytes = reinterpret_cast<const uint8_t*>(data_);
    size_t i = 0;
    for (; i < n && size_ - pos_ >= kMaxVarintBytes; ++i) {
      size_t at = pos_;
      uint64_t b = bytes[at++];
      uint64_t v = b & 0x7f;
      for (int shift = 7; b & 0x80; shift += 7) {
        M3R_CHECK(shift < 64) << "varint too long";
        b = bytes[at++];
        v |= (b & 0x7f) << shift;
      }
      pos_ = at;
      out[i] = static_cast<Int>(v);
    }
    for (; i < n; ++i) out[i] = static_cast<Int>(ReadVarU64());
  }
  void ReadDoubleArray(double* out, size_t n) {
    CheckFits(n, 8);
    const char* p = data_ + pos_;
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits;
      std::memcpy(&bits, p + i * 8, 8);
      bits = ToBigEndian(bits);
      std::memcpy(&out[i], &bits, 8);
    }
    pos_ += n * 8;
  }

  /// Aborts unless `count` more elements of at least `min_bytes` each can
  /// follow. Readers call it on a length taken off the wire before sizing
  /// a container from it, so a corrupt length aborts here instead of first
  /// asking the allocator for gigabytes.
  void CheckFits(uint64_t count, size_t min_bytes) const {
    M3R_CHECK(count <= remaining() / min_bytes) << "DataInput overrun";
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  /// Claims the next `n` bytes: one bounds check per primitive.
  const char* Consume(size_t n) {
    M3R_CHECK(n <= size_ - pos_) << "DataInput overrun";
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_IO_H_

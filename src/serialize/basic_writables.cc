#include "serialize/basic_writables.h"

#include <cstdio>

#include "serialize/registry.h"

namespace m3r::serialize {

namespace {
template <typename T>
int Cmp(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}
}  // namespace

int IntWritable::CompareTo(const Writable& other) const {
  return Cmp(value_, static_cast<const IntWritable&>(other).value_);
}

int LongWritable::CompareTo(const Writable& other) const {
  return Cmp(value_, static_cast<const LongWritable&>(other).value_);
}

int DoubleWritable::CompareTo(const Writable& other) const {
  return Cmp(value_, static_cast<const DoubleWritable&>(other).value_);
}

std::string DoubleWritable::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value_);
  return buf;
}

int Text::CompareTo(const Writable& other) const {
  int c = value_.compare(static_cast<const Text&>(other).value_);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

namespace {
size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}
}  // namespace

size_t Text::SerializedSize() const {
  return VarintLen(value_.size()) + value_.size();
}

size_t BytesWritable::SerializedSize() const {
  return VarintLen(value_.size()) + value_.size();
}

void DoubleArrayWritable::Write(DataOutput& out) const {
  out.WriteVarU64(values_.size());
  out.WriteDoubleArray(values_.data(), values_.size());
}

void DoubleArrayWritable::ReadFields(DataInput& in) {
  const uint64_t n = in.ReadVarU64();
  in.CheckFits(n, 8);
  values_.resize(n);
  in.ReadDoubleArray(values_.data(), values_.size());
}

std::string DoubleArrayWritable::ToString() const {
  std::string s = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) s += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", values_[i]);
    s += buf;
    if (i >= 7 && values_.size() > 9) {
      s += ",...";
      break;
    }
  }
  s += "]";
  return s;
}

size_t DoubleArrayWritable::SerializedSize() const {
  size_t header = 1;
  size_t n = values_.size();
  while (n >= 0x80) {
    ++header;
    n >>= 7;
  }
  return header + values_.size() * 8;
}

int PairIntWritable::CompareTo(const Writable& other) const {
  const auto& o = static_cast<const PairIntWritable&>(other);
  if (int c = Cmp(row_, o.row_)) return c;
  return Cmp(col_, o.col_);
}

void GenericWritable::Write(DataOutput& out) const {
  M3R_CHECK(inner_ != nullptr) << "GenericWritable with no payload";
  out.WriteString(inner_->TypeName());
  inner_->Write(out);
}

void GenericWritable::ReadFields(DataInput& in) {
  std::string type = in.ReadString();
  inner_ = WritableRegistry::Instance().Create(type);
  inner_->ReadFields(in);
}

std::string GenericWritable::ToString() const {
  return inner_ == nullptr ? "(empty)" : inner_->ToString();
}

size_t GenericWritable::SerializedSize() const {
  if (inner_ == nullptr) return 0;
  std::string type = inner_->TypeName();
  return 1 + type.size() + inner_->SerializedSize();
}

M3R_REGISTER_WRITABLE(GenericWritable)
M3R_REGISTER_WRITABLE(NullWritable)
M3R_REGISTER_WRITABLE(BooleanWritable)
M3R_REGISTER_WRITABLE(IntWritable)
M3R_REGISTER_WRITABLE(LongWritable)
M3R_REGISTER_WRITABLE(DoubleWritable)
M3R_REGISTER_WRITABLE(Text)
M3R_REGISTER_WRITABLE(BytesWritable)
M3R_REGISTER_WRITABLE(DoubleArrayWritable)
M3R_REGISTER_WRITABLE(PairIntWritable)

}  // namespace m3r::serialize

#include "sysml/matrix_block.h"

#include "common/logging.h"
#include "serialize/registry.h"

namespace m3r::sysml {

MatrixBlockWritable MatrixBlockWritable::Dense(int32_t rows, int32_t cols) {
  MatrixBlockWritable m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.dense_ = true;
  m.values_.assign(static_cast<size_t>(rows) * cols, 0.0);
  return m;
}

MatrixBlockWritable MatrixBlockWritable::Sparse(int32_t rows, int32_t cols) {
  MatrixBlockWritable m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.dense_ = false;
  return m;
}

int64_t MatrixBlockWritable::nnz() const {
  if (!dense_) return static_cast<int64_t>(coo_vals_.size());
  int64_t n = 0;
  for (double v : values_) {
    if (v != 0) ++n;
  }
  return n;
}

double MatrixBlockWritable::Get(int32_t r, int32_t c) const {
  if (dense_) return values_[static_cast<size_t>(r) * cols_ + c];
  for (size_t i = 0; i < coo_vals_.size(); ++i) {
    if (coo_rows_[i] == r && coo_cols_[i] == c) return coo_vals_[i];
  }
  return 0;
}

void MatrixBlockWritable::Set(int32_t r, int32_t c, double v) {
  M3R_CHECK(dense_) << "Set on sparse block";
  values_[static_cast<size_t>(r) * cols_ + c] = v;
}

void MatrixBlockWritable::Append(int32_t r, int32_t c, double v) {
  M3R_CHECK(!dense_) << "Append on dense block";
  coo_rows_.push_back(r);
  coo_cols_.push_back(c);
  coo_vals_.push_back(v);
}

void MatrixBlockWritable::Densify() {
  if (dense_) return;
  values_.assign(static_cast<size_t>(rows_) * cols_, 0.0);
  for (size_t i = 0; i < coo_vals_.size(); ++i) {
    values_[static_cast<size_t>(coo_rows_[i]) * cols_ + coo_cols_[i]] +=
        coo_vals_[i];
  }
  coo_rows_.clear();
  coo_cols_.clear();
  coo_vals_.clear();
  dense_ = true;
}

MatrixBlockWritable MatrixBlockWritable::Multiply(
    const MatrixBlockWritable& other) const {
  M3R_CHECK(cols_ == other.rows_)
      << "dim mismatch " << cols_ << " vs " << other.rows_;
  MatrixBlockWritable c = Dense(rows_, other.cols_);
  if (!dense_) {
    // Sparse-left: iterate triplets.
    for (size_t t = 0; t < coo_vals_.size(); ++t) {
      int32_t r = coo_rows_[t];
      int32_t k = coo_cols_[t];
      double v = coo_vals_[t];
      for (int32_t j = 0; j < other.cols_; ++j) {
        c.values_[static_cast<size_t>(r) * c.cols_ + j] +=
            v * other.Get(k, j);
      }
    }
    return c;
  }
  MatrixBlockWritable rhs = other;  // densify a copy if needed
  rhs.Densify();
  for (int32_t i = 0; i < rows_; ++i) {
    for (int32_t k = 0; k < cols_; ++k) {
      double a = values_[static_cast<size_t>(i) * cols_ + k];
      if (a == 0) continue;
      const double* brow = &rhs.values_[static_cast<size_t>(k) * rhs.cols_];
      double* crow = &c.values_[static_cast<size_t>(i) * c.cols_];
      for (int32_t j = 0; j < rhs.cols_; ++j) crow[j] += a * brow[j];
    }
  }
  return c;
}

void MatrixBlockWritable::AccumulateAdd(const MatrixBlockWritable& other) {
  M3R_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "dim mismatch";
  Densify();
  if (other.dense_) {
    for (size_t i = 0; i < values_.size(); ++i) values_[i] += other.values_[i];
  } else {
    for (size_t t = 0; t < other.coo_vals_.size(); ++t) {
      values_[static_cast<size_t>(other.coo_rows_[t]) * cols_ +
              other.coo_cols_[t]] += other.coo_vals_[t];
    }
  }
}

MatrixBlockWritable MatrixBlockWritable::Elementwise(
    const MatrixBlockWritable& other, char op) const {
  M3R_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "dim mismatch";
  MatrixBlockWritable lhs = *this;
  lhs.Densify();
  MatrixBlockWritable rhs = other;
  rhs.Densify();
  MatrixBlockWritable c = Dense(rows_, cols_);
  for (size_t i = 0; i < c.values_.size(); ++i) {
    double a = lhs.values_[i];
    double b = rhs.values_[i];
    double v = 0;
    switch (op) {
      case '*': v = a * b; break;
      case '/': v = b == 0 ? 0 : a / b; break;  // SystemML-style guard
      case '+': v = a + b; break;
      case '-': v = a - b; break;
      default: M3R_LOG(Fatal) << "bad elementwise op " << op;
    }
    c.values_[i] = v;
  }
  return c;
}

MatrixBlockWritable MatrixBlockWritable::Transposed() const {
  if (dense_) {
    MatrixBlockWritable t = Dense(cols_, rows_);
    for (int32_t r = 0; r < rows_; ++r) {
      for (int32_t c = 0; c < cols_; ++c) {
        t.values_[static_cast<size_t>(c) * rows_ + r] =
            values_[static_cast<size_t>(r) * cols_ + c];
      }
    }
    return t;
  }
  MatrixBlockWritable t = Sparse(cols_, rows_);
  for (size_t i = 0; i < coo_vals_.size(); ++i) {
    t.Append(coo_cols_[i], coo_rows_[i], coo_vals_[i]);
  }
  return t;
}

MatrixBlockWritable MatrixBlockWritable::AffineMap(double mul,
                                                   double add) const {
  MatrixBlockWritable c = Densified();
  for (auto& v : c.values_) v = v * mul + add;
  return c;
}

MatrixBlockWritable MatrixBlockWritable::Densified() const {
  MatrixBlockWritable c = *this;
  c.Densify();
  return c;
}

double MatrixBlockWritable::Sum() const {
  double s = 0;
  if (dense_) {
    for (double v : values_) s += v;
  } else {
    for (double v : coo_vals_) s += v;
  }
  return s;
}

void MatrixBlockWritable::Write(serialize::DataOutput& out) const {
  out.WriteVarU64(static_cast<uint64_t>(rows_));
  out.WriteVarU64(static_cast<uint64_t>(cols_));
  out.WriteBool(dense_);
  if (dense_) {
    out.WriteDoubleArray(values_.data(), values_.size());
  } else {
    // The deliberately bulky SystemML-style wire format: full 32-bit row
    // and column indices per non-zero.
    out.WriteVarU64(coo_vals_.size());
    for (size_t i = 0; i < coo_vals_.size(); ++i) {
      out.WriteI32(coo_rows_[i]);
      out.WriteI32(coo_cols_[i]);
      out.WriteDouble(coo_vals_[i]);
    }
  }
}

void MatrixBlockWritable::ReadFields(serialize::DataInput& in) {
  rows_ = static_cast<int32_t>(in.ReadVarU64());
  cols_ = static_cast<int32_t>(in.ReadVarU64());
  dense_ = in.ReadBool();
  values_.clear();
  coo_rows_.clear();
  coo_cols_.clear();
  coo_vals_.clear();
  if (dense_) {
    // Widened through uint32 so the product cannot wrap; checked before
    // anything is sized from it.
    const uint64_t n = uint64_t{static_cast<uint32_t>(rows_)} *
                       static_cast<uint32_t>(cols_);
    in.CheckFits(n, 8);
    values_.resize(n);
    in.ReadDoubleArray(values_.data(), values_.size());
  } else {
    const uint64_t nnz = in.ReadVarU64();
    in.CheckFits(nnz, 16);
    coo_rows_.resize(nnz);
    coo_cols_.resize(nnz);
    coo_vals_.resize(nnz);
    for (size_t i = 0; i < nnz; ++i) {
      coo_rows_[i] = in.ReadI32();
      coo_cols_[i] = in.ReadI32();
      coo_vals_[i] = in.ReadDouble();
    }
  }
}

std::string MatrixBlockWritable::ToString() const {
  return std::string(dense_ ? "dense(" : "coo(") + std::to_string(rows_) +
         "x" + std::to_string(cols_) + ")";
}

size_t MatrixBlockWritable::SerializedSize() const {
  if (dense_) return 8 + values_.size() * 8;
  return 8 + coo_vals_.size() * 16;
}

void TaggedMatrixWritable::Write(serialize::DataOutput& out) const {
  out.WriteI32(tag_);
  block_.Write(out);
}

void TaggedMatrixWritable::ReadFields(serialize::DataInput& in) {
  tag_ = in.ReadI32();
  block_.ReadFields(in);
}

size_t TaggedMatrixWritable::SerializedSize() const {
  return 4 + block_.SerializedSize();
}

void TripleIntWritable::Write(serialize::DataOutput& out) const {
  out.WriteU32(static_cast<uint32_t>(i_) ^ 0x80000000u);
  out.WriteU32(static_cast<uint32_t>(j_) ^ 0x80000000u);
  out.WriteU32(static_cast<uint32_t>(k_) ^ 0x80000000u);
}

void TripleIntWritable::ReadFields(serialize::DataInput& in) {
  i_ = static_cast<int32_t>(in.ReadU32() ^ 0x80000000u);
  j_ = static_cast<int32_t>(in.ReadU32() ^ 0x80000000u);
  k_ = static_cast<int32_t>(in.ReadU32() ^ 0x80000000u);
}

int TripleIntWritable::CompareTo(const serialize::Writable& other) const {
  const auto& o = static_cast<const TripleIntWritable&>(other);
  if (i_ != o.i_) return i_ < o.i_ ? -1 : 1;
  if (j_ != o.j_) return j_ < o.j_ ? -1 : 1;
  if (k_ != o.k_) return k_ < o.k_ ? -1 : 1;
  return 0;
}

size_t TripleIntWritable::HashCode() const {
  size_t h = static_cast<size_t>(i_);
  h = h * 1000003u + static_cast<size_t>(j_);
  h = h * 1000003u + static_cast<size_t>(k_);
  return h;
}

std::string TripleIntWritable::ToString() const {
  return "(" + std::to_string(i_) + "," + std::to_string(j_) + "," +
         std::to_string(k_) + ")";
}

M3R_REGISTER_WRITABLE(MatrixBlockWritable)
M3R_REGISTER_WRITABLE(TaggedMatrixWritable)
M3R_REGISTER_WRITABLE(TripleIntWritable)

}  // namespace m3r::sysml

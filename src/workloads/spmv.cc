#include "workloads/spmv.h"

#include <tuple>

#include "api/class_registry.h"
#include "api/multiple_io.h"
#include "api/sequence_file.h"
#include "serialize/registry.h"

namespace m3r::workloads {

using serialize::DoubleArrayWritable;
using serialize::GenericWritable;
using serialize::PairIntWritable;

CscBlockWritable CscBlockWritable::FromTriplets(
    int32_t rows, int32_t cols,
    const std::vector<std::tuple<int32_t, int32_t, double>>& triplets) {
  CscBlockWritable block(rows, cols);
  // Count per column, then prefix-sum (triplets must be column-major).
  for (const auto& [r, c, v] : triplets) {
    (void)r;
    (void)v;
    block.col_ptr_[static_cast<size_t>(c) + 1]++;
  }
  for (int32_t c = 0; c < cols; ++c) {
    block.col_ptr_[static_cast<size_t>(c) + 1] +=
        block.col_ptr_[static_cast<size_t>(c)];
  }
  block.row_idx_.reserve(triplets.size());
  block.values_.reserve(triplets.size());
  for (const auto& [r, c, v] : triplets) {
    (void)c;
    block.row_idx_.push_back(r);
    block.values_.push_back(v);
  }
  return block;
}

void CscBlockWritable::MultiplyAccumulate(const std::vector<double>& x,
                                          std::vector<double>* y) const {
  for (int32_t c = 0; c < cols_; ++c) {
    double xc = x[static_cast<size_t>(c)];
    if (xc == 0) continue;
    for (int32_t i = col_ptr_[static_cast<size_t>(c)];
         i < col_ptr_[static_cast<size_t>(c) + 1]; ++i) {
      (*y)[static_cast<size_t>(row_idx_[static_cast<size_t>(i)])] +=
          values_[static_cast<size_t>(i)] * xc;
    }
  }
}

void CscBlockWritable::Write(serialize::DataOutput& out) const {
  out.WriteVarU64(static_cast<uint64_t>(rows_));
  out.WriteVarU64(static_cast<uint64_t>(cols_));
  out.WriteVarU64(values_.size());
  out.WriteVarU64Array(col_ptr_.data(), col_ptr_.size());
  out.WriteVarU64Array(row_idx_.data(), row_idx_.size());
  out.WriteDoubleArray(values_.data(), values_.size());
}

void CscBlockWritable::ReadFields(serialize::DataInput& in) {
  rows_ = static_cast<int32_t>(in.ReadVarU64());
  const uint64_t cols = in.ReadVarU64();
  const uint64_t nnz = in.ReadVarU64();
  // Checked before anything is sized from them: at least a byte per
  // column pointer, and per non-zero a row-index byte and an eight-byte
  // value.
  in.CheckFits(cols, 1);
  in.CheckFits(nnz, 9);
  cols_ = static_cast<int32_t>(cols);
  col_ptr_.resize(cols + 1);
  in.ReadVarU64Array(col_ptr_.data(), col_ptr_.size());
  row_idx_.resize(nnz);
  in.ReadVarU64Array(row_idx_.data(), row_idx_.size());
  values_.resize(nnz);
  in.ReadDoubleArray(values_.data(), values_.size());
}

std::string CscBlockWritable::ToString() const {
  return "csc(" + std::to_string(rows_) + "x" + std::to_string(cols_) +
         ", nnz=" + std::to_string(values_.size()) + ")";
}

size_t CscBlockWritable::SerializedSize() const {
  // Varints average ~2 bytes for block-local indices.
  return 8 + col_ptr_.size() * 2 + row_idx_.size() * 2 + values_.size() * 8;
}

void GPassMapper::Map(const api::WritablePtr& key,
                      const api::WritablePtr& value,
                      api::OutputCollector& output, api::Reporter&) {
  output.Collect(key, std::make_shared<GenericWritable>(value));
}

void VBroadcastMapper::Configure(const api::JobConf& conf) {
  num_row_blocks_ =
      static_cast<int32_t>(conf.GetInt(spmv_conf::kNumRowBlocks, 1));
}

void VBroadcastMapper::Map(const api::WritablePtr& key,
                           const api::WritablePtr& value,
                           api::OutputCollector& output, api::Reporter&) {
  const auto& vkey = static_cast<const PairIntWritable&>(*key);
  int32_t c = vkey.Row();  // V block (c, 0) pairs with column block c of G
  // One wrapper object emitted in a loop: X10 de-duplication transmits a
  // single copy per destination place (paper §3.2.2.3).
  auto wrapped = std::make_shared<GenericWritable>(value);
  for (int32_t r = 0; r < num_row_blocks_; ++r) {
    output.Collect(std::make_shared<PairIntWritable>(r, c), wrapped);
  }
}

void MultiplyReducer::Reduce(const api::WritablePtr& key,
                             api::ValuesIterator& values,
                             api::OutputCollector& output, api::Reporter&) {
  const CscBlockWritable* g = nullptr;
  const DoubleArrayWritable* v = nullptr;
  std::vector<api::WritablePtr> held;  // keep alive while we use raw ptrs
  while (values.HasNext()) {
    api::WritablePtr val = values.Next();
    const auto& generic = static_cast<const GenericWritable&>(*val);
    if (const auto* csc =
            dynamic_cast<const CscBlockWritable*>(generic.Get().get())) {
      g = csc;
    } else if (const auto* dense = dynamic_cast<const DoubleArrayWritable*>(
                   generic.Get().get())) {
      v = dense;
    }
    held.push_back(std::move(val));
  }
  if (g == nullptr || v == nullptr) return;  // zero block: no partial
  auto partial = std::make_shared<DoubleArrayWritable>();
  partial->Mutable().assign(static_cast<size_t>(g->rows()), 0.0);
  g->MultiplyAccumulate(v->Get(), &partial->Mutable());
  output.Collect(key, partial);
}

void SumKeyRewriteMapper::Map(const api::WritablePtr& key,
                              const api::WritablePtr& value,
                              api::OutputCollector& output, api::Reporter&) {
  const auto& k = static_cast<const PairIntWritable&>(*key);
  output.Collect(std::make_shared<PairIntWritable>(k.Row(), 0), value);
}

void SumReducer::Reduce(const api::WritablePtr& key,
                        api::ValuesIterator& values,
                        api::OutputCollector& output, api::Reporter&) {
  auto sum = std::make_shared<DoubleArrayWritable>();
  while (values.HasNext()) {
    api::WritablePtr v = values.Next();  // keep the value alive while used
    const auto& partial = static_cast<const DoubleArrayWritable&>(*v);
    std::vector<double>& acc = sum->Mutable();
    if (acc.size() < partial.Get().size()) acc.resize(partial.Get().size());
    for (size_t i = 0; i < partial.Get().size(); ++i) {
      acc[i] += partial.Get()[i];
    }
  }
  output.Collect(key, sum);
}

int RowPartitioner::GetPartition(const api::Writable& key,
                                 const api::Writable&, int num_partitions) {
  const auto& k = static_cast<const PairIntWritable&>(key);
  return static_cast<int>(static_cast<uint32_t>(k.Row()) %
                          static_cast<uint32_t>(num_partitions));
}

std::vector<api::JobConf> MakeSpmvIterationJobs(
    const std::string& g_path, const std::string& v_in,
    const std::string& partial, const std::string& v_out, int num_reducers,
    int num_row_blocks) {
  using api::JobConf;
  std::vector<JobConf> jobs;

  JobConf job1;
  job1.SetJobName("spmv-multiply");
  api::MultipleInputs::AddInputPath(&job1, g_path,
                                    api::SequenceFileInputFormat::kClassName,
                                    GPassMapper::kClassName);
  api::MultipleInputs::AddInputPath(&job1, v_in,
                                    api::SequenceFileInputFormat::kClassName,
                                    VBroadcastMapper::kClassName);
  job1.SetOutputPath(partial);
  job1.SetOutputFormatClass(api::SequenceFileOutputFormat::kClassName);
  job1.SetReducerClass(MultiplyReducer::kClassName);
  job1.SetPartitionerClass(RowPartitioner::kClassName);
  job1.SetNumReduceTasks(num_reducers);
  job1.SetOutputKeyClass(PairIntWritable::kTypeName);
  job1.SetOutputValueClass(DoubleArrayWritable::kTypeName);
  job1.SetMapOutputKeyClass(PairIntWritable::kTypeName);
  job1.SetMapOutputValueClass(GenericWritable::kTypeName);
  job1.SetInt(spmv_conf::kNumRowBlocks, num_row_blocks);
  jobs.push_back(job1);

  JobConf job2;
  job2.SetJobName("spmv-sum");
  job2.AddInputPath(partial);
  job2.SetInputFormatClass(api::SequenceFileInputFormat::kClassName);
  job2.SetOutputPath(v_out);
  job2.SetOutputFormatClass(api::SequenceFileOutputFormat::kClassName);
  job2.SetMapperClass(SumKeyRewriteMapper::kClassName);
  job2.SetReducerClass(SumReducer::kClassName);
  job2.SetPartitionerClass(RowPartitioner::kClassName);
  job2.SetNumReduceTasks(num_reducers);
  job2.SetOutputKeyClass(PairIntWritable::kTypeName);
  job2.SetOutputValueClass(DoubleArrayWritable::kTypeName);
  jobs.push_back(job2);
  return jobs;
}

M3R_REGISTER_CLASS_AS(api::mapred::Mapper, GPassMapper, GPassMapper)
M3R_REGISTER_CLASS_AS(api::mapred::Mapper, VBroadcastMapper,
                      VBroadcastMapper)
M3R_REGISTER_CLASS_AS(api::mapred::Reducer, MultiplyReducer, MultiplyReducer)
M3R_REGISTER_CLASS_AS(api::mapred::Mapper, SumKeyRewriteMapper,
                      SumKeyRewriteMapper)
M3R_REGISTER_CLASS_AS(api::mapred::Reducer, SumReducer, SumReducer)
M3R_REGISTER_CLASS_AS(api::Partitioner, RowPartitioner, RowPartitioner)
M3R_REGISTER_WRITABLE(CscBlockWritable)

}  // namespace m3r::workloads

#include "api/sequence_file.h"

#include <atomic>
#include <cstring>

#include "api/class_registry.h"
#include "common/rng.h"
#include "serialize/registry.h"

namespace m3r::api {

namespace {

using serialize::DataInput;
using serialize::DataOutput;
using serialize::WritableRegistry;

/// Deterministic-but-unique sync marker per writer (Hadoop uses a random
/// UUID; determinism keeps benchmark runs reproducible).
std::string MakeSync(uint64_t seed) {
  Rng rng(seed ^ 0x5eedc0ffee123457ULL);
  std::string sync(seqfile::kSyncSize, '\0');
  for (auto& c : sync) {
    // Avoid '\n' so syncs never collide with the magic header.
    c = static_cast<char>(1 + (rng.NextU64() % 250));
  }
  return sync;
}

uint64_t SyncSeedCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1);
}

/// Parsed header + chunk walker shared by the reader paths.
class SeqFileCursor {
 public:
  explicit SeqFileCursor(std::shared_ptr<const std::string> content)
      : content_(std::move(content)) {
    const std::string& data = *content_;
    size_t magic_len = std::strlen(seqfile::kMagic);
    M3R_CHECK(data.size() >= magic_len &&
              data.compare(0, magic_len, seqfile::kMagic) == 0)
        << "not a sequence file";
    DataInput in(data.data() + magic_len, data.size() - magic_len);
    key_type_ = in.ReadString();
    value_type_ = in.ReadString();
    sync_.resize(seqfile::kSyncSize);
    in.ReadRaw(sync_.data(), seqfile::kSyncSize);
    body_start_ = magic_len + in.position();
  }

  const std::string& key_type() const { return key_type_; }
  const std::string& value_type() const { return value_type_; }
  size_t body_start() const { return body_start_; }

  /// Offset of the first sync at or after `from` (npos when none).
  size_t NextSync(size_t from) const {
    if (from < body_start_) return body_start_;
    return content_->find(sync_, from);
  }

  /// Reads the chunk whose sync marker starts at `sync_pos`; returns the
  /// offset one past the chunk (= next sync position or EOF), and appends
  /// the chunk's serialized record span to `records`.
  size_t ReadChunk(size_t sync_pos, std::string_view* records,
                   uint64_t* num_records) const {
    const std::string& data = *content_;
    M3R_CHECK(data.compare(sync_pos, seqfile::kSyncSize, sync_) == 0)
        << "corrupt sequence file: missing sync";
    size_t p = sync_pos + seqfile::kSyncSize;
    DataInput in(data.data() + p, data.size() - p);
    uint64_t n = in.ReadVarU64();
    uint64_t bytes = in.ReadVarU64();
    size_t records_start = p + in.position();
    M3R_CHECK(records_start + bytes <= data.size()) << "truncated chunk";
    *records = std::string_view(data.data() + records_start,
                                static_cast<size_t>(bytes));
    *num_records = n;
    return records_start + bytes;
  }

  const std::string& content() const { return *content_; }

 private:
  std::shared_ptr<const std::string> content_;
  std::string key_type_;
  std::string value_type_;
  std::string sync_;
  size_t body_start_ = 0;
};

/// Streams records from the chunks whose sync markers land in
/// [start, end) — Hadoop split semantics.
class SeqRecordReader : public RecordReader {
 public:
  SeqRecordReader(std::shared_ptr<const std::string> content, uint64_t start,
                  uint64_t length)
      : cursor_(std::move(content)),
        end_(start + length),
        records_(""),
        in_(records_) {
    next_chunk_ = cursor_.NextSync(static_cast<size_t>(start));
  }

  WritablePtr CreateKey() const override {
    return WritableRegistry::Instance().Create(cursor_.key_type());
  }
  WritablePtr CreateValue() const override {
    return WritableRegistry::Instance().Create(cursor_.value_type());
  }

  bool Next(Writable& key, Writable& value) override {
    while (in_.AtEnd()) {
      if (next_chunk_ == std::string::npos || next_chunk_ >= end_ ||
          next_chunk_ >= cursor_.content().size()) {
        return false;
      }
      uint64_t n = 0;
      next_chunk_ = cursor_.ReadChunk(next_chunk_, &records_, &n);
      in_ = DataInput(records_.data(), records_.size());
    }
    key.ReadFields(in_);
    value.ReadFields(in_);
    return true;
  }

  double GetProgress() const override {
    return end_ == 0 ? 1.0
                     : std::min(1.0, static_cast<double>(next_chunk_) /
                                         static_cast<double>(end_));
  }

 private:
  SeqFileCursor cursor_;
  uint64_t end_;
  size_t next_chunk_ = 0;
  std::string_view records_;
  DataInput in_;
};

class SeqRecordWriter : public RecordWriter {
 public:
  SeqRecordWriter(std::unique_ptr<dfs::FileWriter> writer,
                  std::string key_type, std::string value_type)
      : key_type_(std::move(key_type)), value_type_(std::move(value_type)),
        writer_(std::move(writer)) {}

  Status Write(const Writable& key, const Writable& value) override {
    if (impl_ == nullptr) {
      std::string kt = key_type_.empty() ? key.TypeName() : key_type_;
      std::string vt = value_type_.empty() ? value.TypeName() : value_type_;
      impl_ = std::make_unique<SequenceFileWriter>(std::move(writer_), kt,
                                                   vt);
    }
    return impl_->Append(key, value);
  }

  Status Close() override {
    if (impl_ == nullptr) {
      // No records: write a bare header if the types are configured so the
      // file is a valid, empty sequence file.
      if (!key_type_.empty() && !value_type_.empty()) {
        impl_ = std::make_unique<SequenceFileWriter>(std::move(writer_),
                                                     key_type_, value_type_);
      } else {
        return writer_->Close();
      }
    }
    return impl_->Close();
  }

  uint64_t BytesWritten() const override {
    return impl_ == nullptr ? 0 : impl_->BytesWritten();
  }

 private:
  std::string key_type_;
  std::string value_type_;
  std::unique_ptr<dfs::FileWriter> writer_;  // until first record
  std::unique_ptr<SequenceFileWriter> impl_;
};

}  // namespace

Result<std::unique_ptr<RecordReader>> SequenceFileInputFormat::GetRecordReader(
    const InputSplit& split, const JobConf&, dfs::FileSystem& fs) {
  const auto* fsplit = dynamic_cast<const FileSplit*>(&split);
  if (fsplit == nullptr) {
    return Status::InvalidArgument("SequenceFileInputFormat needs FileSplit");
  }
  M3R_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> content,
                       fs.Open(fsplit->Path()));
  if (content->empty()) {
    class EmptyReader : public RecordReader {
     public:
      WritablePtr CreateKey() const override {
        return std::make_shared<serialize::NullWritable>();
      }
      WritablePtr CreateValue() const override {
        return std::make_shared<serialize::NullWritable>();
      }
      bool Next(Writable&, Writable&) override { return false; }
    };
    return std::unique_ptr<RecordReader>(new EmptyReader());
  }
  return std::unique_ptr<RecordReader>(new SeqRecordReader(
      std::move(content), fsplit->Start(), fsplit->GetLength()));
}

Result<std::unique_ptr<RecordWriter>> SequenceFileOutputFormat::GetRecordWriter(
    const JobConf& conf, dfs::FileSystem& fs, const std::string& file_path,
    int preferred_node) {
  dfs::CreateOptions opts;
  opts.preferred_node = preferred_node;
  M3R_ASSIGN_OR_RETURN(std::unique_ptr<dfs::FileWriter> writer,
                       fs.Create(file_path, opts));
  return std::unique_ptr<RecordWriter>(
      new SeqRecordWriter(std::move(writer), conf.Get(conf::kOutputKeyClass),
                          conf.Get(conf::kOutputValueClass)));
}

SequenceFileWriter::SequenceFileWriter(std::unique_ptr<dfs::FileWriter> writer,
                                       const std::string& key_type,
                                       const std::string& value_type)
    : writer_(std::move(writer)), sync_(MakeSync(SyncSeedCounter())) {
  DataOutput header;
  header.WriteRaw(seqfile::kMagic, std::strlen(seqfile::kMagic));
  header.WriteString(key_type);
  header.WriteString(value_type);
  header.WriteRaw(sync_.data(), sync_.size());
  M3R_CHECK_OK(writer_->Append(header.buffer()));
  bytes_ += header.size();
}

Status SequenceFileWriter::Append(const Writable& key,
                                  const Writable& value) {
  DataOutput out(&chunk_);
  key.Write(out);
  value.Write(out);
  ++chunk_records_;
  if (chunk_.size() >= seqfile::kChunkBytes) return FlushChunk();
  return Status::OK();
}

Status SequenceFileWriter::FlushChunk() {
  if (chunk_records_ == 0) return Status::OK();
  // The frame header goes out on its own and the records follow by
  // hand-off, so the chunk is never copied into a framed buffer.
  DataOutput header;
  header.WriteRaw(sync_.data(), sync_.size());
  header.WriteVarU64(chunk_records_);
  header.WriteVarU64(chunk_.size());
  bytes_ += header.size() + chunk_.size();
  chunk_records_ = 0;
  Status st = writer_->Append(header.buffer());
  if (st.ok()) st = writer_->AppendOwned(std::move(chunk_));
  chunk_.clear();
  return st;
}

Status SequenceFileWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  M3R_RETURN_NOT_OK(FlushChunk());
  return writer_->Close();
}

Result<std::vector<std::pair<WritablePtr, WritablePtr>>> ReadSequenceFile(
    dfs::FileSystem& fs, const std::string& path) {
  M3R_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> content,
                       fs.Open(path));
  std::vector<std::pair<WritablePtr, WritablePtr>> out;
  if (content->empty()) return out;
  uint64_t size = content->size();
  SeqRecordReader reader(std::move(content), 0, size);
  for (;;) {
    WritablePtr k = reader.CreateKey();
    WritablePtr v = reader.CreateValue();
    if (!reader.Next(*k, *v)) break;
    out.emplace_back(std::move(k), std::move(v));
  }
  return out;
}

M3R_REGISTER_CLASS_AS(InputFormat, SequenceFileInputFormat,
                      SequenceFileInputFormat)
M3R_REGISTER_CLASS_AS(OutputFormat, SequenceFileOutputFormat,
                      SequenceFileOutputFormat)

}  // namespace m3r::api

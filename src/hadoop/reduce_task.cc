#include "hadoop/reduce_task.h"

#include <memory>

#include "api/output_format.h"
#include "api/task_runner.h"
#include "hadoop/merge.h"
#include "hadoop/named_output.h"

namespace m3r::hadoop {

namespace {

class WriterCollector : public api::OutputCollector {
 public:
  WriterCollector(api::RecordWriter* writer, api::Reporter* reporter)
      : writer_(writer), reporter_(reporter) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    M3R_CHECK_OK(writer_->Write(*key, *value));
    reporter_->IncrCounter(api::counters::kTaskGroup,
                           api::counters::kReduceOutputRecords, 1);
  }

 private:
  api::RecordWriter* writer_;
  api::Reporter* reporter_;
};

}  // namespace

ReduceTaskResult RunHadoopReduceTask(
    const api::JobConf& conf, dfs::FileSystem& fs, int partition,
    const std::vector<const std::string*>& segments, int node, int attempt,
    FaultInjector* fault, const std::vector<uint32_t>& segment_crcs,
    const IntegrityContext* integrity) {
  ReduceTaskResult result;
  api::CountersReporter reporter(&result.counters);

  for (const std::string* s : segments) result.shuffle_bytes += s->size();
  result.counters.Increment(api::counters::kTaskGroup,
                            api::counters::kReduceShuffleBytes,
                            static_cast<int64_t>(result.shuffle_bytes));

  // The shuffle fetch is a checksummed hop: every map's segment is
  // verified against its map-side stamp before any of its bytes reach the
  // merge's decoder.
  std::vector<const std::string*> fetched = segments;
  std::vector<std::string> scratch(segments.size());
  if (integrity != nullptr) {
    for (size_t i = 0; i < segments.size(); ++i) {
      const std::string key = "m" + std::to_string(i) + "/p" +
                              std::to_string(partition) + "/a" +
                              std::to_string(attempt);
      uint32_t crc = i < segment_crcs.size() ? segment_crcs[i] : 0;
      result.status = ReceiveChecked(integrity, kCorruptSpill, key, crc,
                                     *segments[i], &scratch[i], &fetched[i]);
      if (!result.status.ok()) return result;
    }
  }

  // Out-of-core merge of all fetched segments into one sorted stream. The
  // merged bytes are written to and re-read from local disk in Hadoop;
  // the engine charges that via merge_bytes.
  uint64_t merged_records = 0;
  std::string merged =
      MergeSegments(fetched, api::SortComparator(conf), &merged_records);
  result.merge_bytes = merged.size();
  result.counters.Increment(api::counters::kTaskGroup,
                            api::counters::kReduceInputRecords,
                            static_cast<int64_t>(merged_records));

  auto output_format = api::MakeOutputFormat(conf);
  std::string temp_path =
      api::file_output::TempPath(conf, partition, attempt);
  auto writer_or = output_format->GetRecordWriter(conf, fs, temp_path, node);
  if (!writer_or.ok()) {
    result.status = writer_or.status();
    return result;
  }
  std::unique_ptr<api::RecordWriter> writer = writer_or.take();

  HadoopNamedOutputSink named_sink(conf, fs, partition, node);
  api::ScopedNamedOutputSink scoped_sink(&named_sink);

  SegmentGroupSource groups(conf, &merged);
  WriterCollector collector(writer.get(), &reporter);
  bool immutable_unused = false;
  result.status = api::RunReduceTask(conf, groups, collector, reporter,
                                     &immutable_unused);
  if (!result.status.ok()) return result;
  result.status = writer->Close();
  if (!result.status.ok()) return result;
  result.output_bytes = writer->BytesWritten() + named_sink.BytesWritten();
  // The merge decodes every fetched segment and re-encodes one stream,
  // which the reducer's group source decodes again.
  result.work.Add(sim::CpuLayer::kDecode, merged_records,
                  result.shuffle_bytes);
  result.work.Add(sim::CpuLayer::kEmit, merged_records, result.merge_bytes);
  result.work.Add(sim::CpuLayer::kDecode, merged_records, result.merge_bytes);
  result.work.Add(sim::CpuLayer::kReduce, merged_records, 0);
  result.work.Add(sim::CpuLayer::kEmit,
                  static_cast<uint64_t>(result.counters.Get(
                      api::counters::kTaskGroup,
                      api::counters::kReduceOutputRecords)),
                  result.output_bytes);

  // Injected death between the reducer finishing and the task committing —
  // the attempt directory stays behind for the engine to abort.
  if (fault != nullptr) {
    result.status = fault->Check(
        "hadoop.reduce",
        std::to_string(partition) + "/" + std::to_string(attempt));
    if (!result.status.ok()) return result;
  }

  api::FileOutputCommitter committer;
  result.status = committer.CommitTask(conf, fs, partition, attempt);
  return result;
}

}  // namespace m3r::hadoop

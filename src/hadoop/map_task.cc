#include "hadoop/map_task.h"

#include "api/hash_combine.h"
#include "api/knobs.h"
#include "api/output_format.h"
#include "api/task_runner.h"
#include "hadoop/merge.h"
#include "hadoop/named_output.h"
#include "hadoop/spill.h"

namespace m3r::hadoop {

namespace {

/// Map-only jobs: collect straight into a RecordWriter (the Hadoop path
/// where map output bypasses sort/shuffle entirely).
class DirectWriteCollector : public api::OutputCollector {
 public:
  DirectWriteCollector(api::RecordWriter* writer, api::Reporter* reporter)
      : writer_(writer), reporter_(reporter) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    M3R_CHECK_OK(writer_->Write(*key, *value));
    reporter_->IncrCounter(api::counters::kTaskGroup,
                           api::counters::kMapOutputRecords, 1);
  }

 private:
  api::RecordWriter* writer_;
  api::Reporter* reporter_;
};

/// Records the task's reader fed its mapper.
uint64_t MapInputRecords(const MapTaskResult& result) {
  return static_cast<uint64_t>(result.counters.Get(
      api::counters::kTaskGroup, api::counters::kMapInputRecords));
}

}  // namespace

MapTaskResult RunHadoopMapTask(const api::JobConf& job_conf,
                               dfs::FileSystem& fs,
                               const api::InputSplit& split, int task_id,
                               int num_reduce, int node, int attempt,
                               FaultInjector* fault,
                               const IntegrityContext* integrity) {
  MapTaskResult result;
  api::CountersReporter reporter(&result.counters);
  const std::string attempt_key =
      std::to_string(task_id) + "/" + std::to_string(attempt);

  // MultipleInputs: the tagged split overrides mapper and input format.
  const api::InputSplit* base_split = nullptr;
  api::JobConf conf = api::SpecializeConfForSplit(job_conf, split,
                                                  &base_split);
  result.input_bytes = split.GetLength();

  auto input_format = api::MakeInputFormat(conf);
  auto reader_or = input_format->GetRecordReader(*base_split, conf, fs);
  if (!reader_or.ok()) {
    result.status = reader_or.status();
    return result;
  }
  std::unique_ptr<api::RecordReader> reader = reader_or.take();

  HadoopNamedOutputSink named_sink(conf, fs, task_id, node);
  api::ScopedNamedOutputSink scoped_sink(&named_sink);

  bool immutable_unused = false;
  if (num_reduce == 0) {
    // Map-only: write through the output format + commit protocol.
    auto output_format = api::MakeOutputFormat(conf);
    std::string temp_path =
        api::file_output::TempPath(conf, task_id, attempt);
    auto writer_or = output_format->GetRecordWriter(conf, fs, temp_path,
                                                    node);
    if (!writer_or.ok()) {
      result.status = writer_or.status();
      return result;
    }
    std::unique_ptr<api::RecordWriter> writer = writer_or.take();
    DirectWriteCollector collector(writer.get(), &reporter);
    result.status =
        api::RunMapTask(conf, *reader, collector, reporter,
                        api::MapRunnerMode::kHadoopDefault,
                        &immutable_unused);
    reader->Close();
    if (!result.status.ok()) return result;
    result.status = writer->Close();
    if (!result.status.ok()) return result;
    result.output_bytes = writer->BytesWritten() + named_sink.BytesWritten();
    result.work.Add(sim::CpuLayer::kMap, MapInputRecords(result),
                    result.input_bytes);
    result.work.Add(sim::CpuLayer::kEmit,
                    static_cast<uint64_t>(result.counters.Get(
                        api::counters::kTaskGroup,
                        api::counters::kMapOutputRecords)),
                    result.output_bytes);
    // Injected death after the work but before the commit: the attempt
    // directory is left for the engine to abort, and the retried attempt
    // commits from its own directory.
    if (fault != nullptr) {
      result.status = fault->Check("hadoop.map", attempt_key);
      if (!result.status.ok()) return result;
    }
    api::FileOutputCommitter committer;
    result.status = committer.CommitTask(conf, fs, task_id, attempt);
    return result;
  }

  MapOutputBuffer buffer(conf, num_reduce, &reporter, integrity);
  std::unique_ptr<api::HashCombineCollector> hasher;
  api::OutputCollector* sink = &buffer;
  if (api::knobs::Bool(conf, api::conf::kMapHashCombine) &&
      api::HashCombineCollector::Eligible(conf)) {
    hasher = std::make_unique<api::HashCombineCollector>(conf, &buffer,
                                                         &reporter);
    sink = hasher.get();
  }
  result.status = api::RunMapTask(conf, *reader, *sink, reporter,
                                  api::MapRunnerMode::kHadoopDefault,
                                  &immutable_unused);
  reader->Close();
  if (!result.status.ok()) return result;
  if (hasher != nullptr) {
    result.status = hasher->Flush();
    if (!result.status.ok()) return result;
  }
  buffer.Flush();
  // The map-side merge below is charged as disk I/O, not as CPU work.
  result.work.Add(sim::CpuLayer::kMap, MapInputRecords(result),
                  result.input_bytes);
  result.work.Add(sim::CpuLayer::kEmit, buffer.total_records(),
                  buffer.total_output_bytes());
  result.work += buffer.spill_work();
  if (hasher != nullptr) {
    result.work.Add(sim::CpuLayer::kReduce, hasher->collected(), 0);
  }
  result.sort = buffer.sort_work();
  // Injected death after the map ran but before its output is served to
  // reducers (the real-world window where a lost tracker forfeits its map
  // output and the task must re-run).
  if (fault != nullptr) {
    result.status = fault->Check("hadoop.map", attempt_key);
    if (!result.status.ok()) return result;
  }

  // Merge spills into the final map output file, one sorted segment per
  // partition. A single spill needs no merge pass.
  std::vector<Spill>& spills = buffer.spills();
  for (const Spill& spill : spills) result.spill_write_bytes += spill.bytes;
  result.counters.Increment(api::counters::kTaskGroup,
                            api::counters::kMapOutputBytes,
                            static_cast<int64_t>(
                                buffer.total_output_bytes()));

  result.partition_segments.resize(static_cast<size_t>(num_reduce));
  if (spills.size() == 1) {
    // No merge pass: the spill's segments (and their spill-time stamps)
    // become the map output file directly.
    result.partition_segments = std::move(spills[0].partition_segments);
    result.segment_crcs = std::move(spills[0].segment_crcs);
    for (const std::string& s : result.partition_segments) {
      result.output_bytes += s.size();
    }
  } else if (!spills.empty()) {
    auto sort_cmp = api::SortComparator(conf);
    for (int p = 0; p < num_reduce; ++p) {
      // The merge re-reads every spilled segment from "local disk" — the
      // corrupt.spill window. Each is verified against its spill-time
      // stamp before its bytes reach the merge's decoder; in repair mode
      // a hit falls back to the buffer's pristine copy.
      std::vector<const std::string*> segments;
      std::vector<std::string> scratch(spills.size());
      for (size_t s = 0; s < spills.size(); ++s) {
        const Spill& spill = spills[s];
        const std::string& segment =
            spill.partition_segments[static_cast<size_t>(p)];
        const std::string* served = &segment;
        if (integrity != nullptr) {
          const std::string key = "m" + std::to_string(task_id) + "/a" +
                                  std::to_string(attempt) + "/s" +
                                  std::to_string(s) + "/p" +
                                  std::to_string(p);
          uint32_t crc = spill.segment_crcs.empty()
                             ? 0
                             : spill.segment_crcs[static_cast<size_t>(p)];
          result.status = ReceiveChecked(integrity, kCorruptSpill, key, crc,
                                         segment, &scratch[s], &served);
          if (!result.status.ok()) return result;
        }
        segments.push_back(served);
      }
      std::string merged = MergeSegments(segments, sort_cmp, nullptr);
      result.merge_bytes += merged.size();
      result.output_bytes += merged.size();
      result.partition_segments[static_cast<size_t>(p)] = std::move(merged);
    }
  }
  if (integrity != nullptr && integrity->enabled() &&
      result.segment_crcs.empty()) {
    result.segment_crcs.reserve(result.partition_segments.size());
    for (const std::string& s : result.partition_segments) {
      result.segment_crcs.push_back(StampCrc(integrity, s));
    }
  }
  return result;
}

}  // namespace m3r::hadoop

#include "m3r/m3r_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/class_registry.h"
#include "api/distributed_cache.h"
#include "api/hash_combine.h"
#include "api/knobs.h"
#include "api/metrics.h"
#include "api/multiple_io.h"
#include "api/output_format.h"
#include "api/phases.h"
#include "api/task_runner.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/logging.h"
#include "common/membership.h"
#include "common/path.h"
#include "common/stopwatch.h"
#include "m3r/shuffle.h"
#include "memgov/lineage.h"
#include "serialize/comparators.h"
#include "serialize/registry.h"
#include "sim/timeline.h"
#include "x10rt/channel.h"

namespace m3r::engine {

namespace {

namespace metric = api::metric;
namespace metrics = api::metrics;
namespace phase = api::phase;

using api::JobConf;
using api::WritablePtr;
using kvstore::KVSeq;

/// Finds a PlacedSplit through any DelegatingSplit wrappers (paper §4.3).
const api::PlacedSplit* FindPlacedSplit(const api::InputSplit& split) {
  if (const auto* placed = dynamic_cast<const api::PlacedSplit*>(&split)) {
    return placed;
  }
  if (const auto* delegating =
          dynamic_cast<const api::DelegatingSplit*>(&split)) {
    return FindPlacedSplit(delegating->GetBaseSplit());
  }
  return nullptr;
}

/// Finds the underlying FileSplit through any DelegatingSplit wrappers.
const api::FileSplit* FindFileSplit(const api::InputSplit& split) {
  if (const auto* file = dynamic_cast<const api::FileSplit*>(&split)) {
    return file;
  }
  if (const auto* delegating =
          dynamic_cast<const api::DelegatingSplit*>(&split)) {
    return FindFileSplit(delegating->GetBaseSplit());
  }
  return nullptr;
}

/// Whether the configured map chain promises immutable output. M3R decides
/// this *before* running the task, from the classes' interfaces (§4.1).
bool MapOutputImmutable(const JobConf& conf) {
  if (conf.UsesNewApiMapper()) {
    auto mapper = api::ObjectRegistry<api::mapreduce::Mapper>::Instance()
                      .Create(conf.Get(api::conf::kMapreduceMapper));
    return api::IsImmutableOutput(mapper.get());
  }
  if (!conf.Contains(api::conf::kMapredMapper)) return false;
  auto mapper = api::ObjectRegistry<api::mapred::Mapper>::Instance().Create(
      conf.Get(api::conf::kMapredMapper));
  bool runner_immutable = true;  // M3R's fresh default runner
  if (conf.Contains(api::conf::kMapRunner)) {
    auto runner = api::ObjectRegistry<api::mapred::MapRunnable>::Instance()
                      .Create(conf.Get(api::conf::kMapRunner));
    runner_immutable = api::IsImmutableOutput(runner.get());
  }
  return runner_immutable && api::IsImmutableOutput(mapper.get());
}

bool CombineOutputImmutable(const JobConf& conf) {
  if (conf.UsesNewApiCombiner()) {
    auto combiner = api::ObjectRegistry<api::mapreduce::Reducer>::Instance()
                        .Create(conf.Get(api::conf::kMapreduceCombiner));
    return api::IsImmutableOutput(combiner.get());
  }
  if (!conf.Contains(api::conf::kMapredCombiner)) return false;
  auto combiner = api::ObjectRegistry<api::mapred::Reducer>::Instance()
                      .Create(conf.Get(api::conf::kMapredCombiner));
  return api::IsImmutableOutput(combiner.get());
}

bool ReduceOutputImmutable(const JobConf& conf) {
  if (conf.UsesNewApiReducer()) {
    auto reducer = api::ObjectRegistry<api::mapreduce::Reducer>::Instance()
                       .Create(conf.Get(api::conf::kMapreduceReducer));
    return api::IsImmutableOutput(reducer.get());
  }
  if (!conf.Contains(api::conf::kMapredReducer)) return false;
  auto reducer = api::ObjectRegistry<api::mapred::Reducer>::Instance().Create(
      conf.Get(api::conf::kMapredReducer));
  return api::IsImmutableOutput(reducer.get());
}

/// One engine-internal record counter, tallied locally and posted to the
/// reporter once, when the owning task object goes away, instead of taking
/// the counters lock per record.
class TaskCounter {
 public:
  TaskCounter(api::Reporter* reporter, const char* group, const char* name)
      : reporter_(reporter), group_(group), name_(name) {}
  TaskCounter(const TaskCounter&) = delete;
  TaskCounter& operator=(const TaskCounter&) = delete;
  ~TaskCounter() {
    if (count_ != 0) reporter_->IncrCounter(group_, name_, count_);
  }
  void Add() { ++count_; }

 private:
  api::Reporter* reporter_;
  const char* group_;
  const char* name_;
  int64_t count_ = 0;
};

/// New-API MapContext over a cached pair sequence: keys/values are served
/// as aliases of the cached objects — the zero-copy path.
class SeqMapContext : public api::mapreduce::MapContext {
 public:
  SeqMapContext(const JobConf& conf, const KVSeq& pairs,
                api::OutputCollector& collector, api::Reporter& reporter)
      : conf_(conf), pairs_(pairs), collector_(collector),
        reporter_(reporter),
        input_records_(&reporter, api::counters::kTaskGroup,
                       api::counters::kMapInputRecords) {}

  bool NextKeyValue() override {
    if (index_ >= pairs_.size()) return false;
    key_ = pairs_[index_].first;
    value_ = pairs_[index_].second;
    ++index_;
    input_records_.Add();
    return true;
  }
  const WritablePtr& CurrentKey() const override { return key_; }
  const WritablePtr& CurrentValue() const override { return value_; }
  void Write(const WritablePtr& key, const WritablePtr& value) override {
    collector_.Collect(key, value);
  }
  void IncrCounter(const std::string& group, const std::string& name,
                   int64_t delta) override {
    reporter_.IncrCounter(group, name, delta);
  }
  const JobConf& Conf() const override { return conf_; }

 private:
  const JobConf& conf_;
  const KVSeq& pairs_;
  api::OutputCollector& collector_;
  api::Reporter& reporter_;
  TaskCounter input_records_;
  size_t index_ = 0;
  WritablePtr key_;
  WritablePtr value_;
};

/// Runs the job's mapper over an in-memory pair sequence (cache hit or
/// just-read input). Old-API mappers get aliases directly; custom
/// MapRunnables go through a copy-out RecordReader to honor their API.
Status FeedMapper(const JobConf& conf, const KVSeq& pairs,
                  api::OutputCollector& collector, api::Reporter& reporter) {
  if (conf.Contains(api::conf::kMapRunner)) {
    auto runner = api::ObjectRegistry<api::mapred::MapRunnable>::Instance()
                      .Create(conf.Get(api::conf::kMapRunner));
    runner->Configure(conf);
    Cache::Block block;
    block.pairs = std::make_shared<const KVSeq>(pairs);
    std::vector<Cache::Block> blocks;
    blocks.push_back(std::move(block));
    auto reader = MakeCachedReader(std::move(blocks));
    runner->Run(*reader, collector, reporter);
    return Status::OK();
  }
  if (conf.UsesNewApiMapper()) {
    auto mapper = api::ObjectRegistry<api::mapreduce::Mapper>::Instance()
                      .Create(conf.Get(api::conf::kMapreduceMapper));
    SeqMapContext ctx(conf, pairs, collector, reporter);
    mapper->Run(ctx);
    return Status::OK();
  }
  if (!conf.Contains(api::conf::kMapredMapper)) {
    return Status::InvalidArgument("job has no mapper class");
  }
  auto mapper = api::ObjectRegistry<api::mapred::Mapper>::Instance().Create(
      conf.Get(api::conf::kMapredMapper));
  mapper->Configure(conf);
  {
    TaskCounter input_records(&reporter, api::counters::kTaskGroup,
                              api::counters::kMapInputRecords);
    for (const auto& [k, v] : pairs) {
      input_records.Add();
      mapper->Map(k, v, collector, reporter);
    }
  }
  mapper->Close();
  return Status::OK();
}

/// Buffers one map task's output, runs the job's combiner per partition,
/// and forwards the combined pairs into the shuffle — M3R's equivalent of
/// Hadoop combining each spill. Combiner output objects are created inside
/// the combine call, so their immutability is governed by the combiner
/// class's own ImmutableOutput promise.
class CombiningShuffleCollector : public api::OutputCollector {
 public:
  CombiningShuffleCollector(const JobConf& conf, ShuffleExchange* shuffle,
                            api::Partitioner* partitioner, int src_place,
                            int worker_lane, int num_partitions,
                            bool mapper_immutable, bool combiner_immutable,
                            api::Reporter* reporter)
      : conf_(conf), shuffle_(shuffle), partitioner_(partitioner),
        src_place_(src_place), worker_lane_(worker_lane),
        num_partitions_(num_partitions),
        mapper_immutable_(mapper_immutable),
        combiner_immutable_(combiner_immutable), reporter_(reporter),
        cloned_pairs_(reporter, api::counters::kM3rGroup,
                      api::counters::kClonedPairs),
        output_records_(reporter, api::counters::kTaskGroup,
                        api::counters::kMapOutputRecords),
        buffered_(static_cast<size_t>(num_partitions)) {}

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    int partition =
        partitioner_->GetPartition(*key, *value, num_partitions_);
    M3R_CHECK(partition >= 0 && partition < num_partitions_);
    api::KeyedPair kp;
    kp.key = mapper_immutable_ ? key : key->Clone();
    kp.value = mapper_immutable_ ? value : value->Clone();
    if (!mapper_immutable_) cloned_pairs_.Add();
    kp.key_bytes = serialize::SerializeToString(*kp.key);
    work_.Add(sim::CpuLayer::kEmit, 1, kp.key_bytes.size());
    buffered_[static_cast<size_t>(partition)].push_back(std::move(kp));
    output_records_.Add();
  }

  /// Runs the combiner over every buffered partition and emits the results.
  Status Flush() {
    class EmitCollector : public api::OutputCollector {
     public:
      EmitCollector(CombiningShuffleCollector* outer, int partition)
          : outer_(outer), partition_(partition) {}
      void Collect(const WritablePtr& key, const WritablePtr& value) override {
        outer_->shuffle_->Emit(outer_->src_place_, partition_, key, value,
                               outer_->combiner_immutable_,
                               outer_->worker_lane_);
        outer_->reporter_->IncrCounter(api::counters::kTaskGroup,
                                       api::counters::kCombineOutputRecords,
                                       1);
      }

     private:
      CombiningShuffleCollector* outer_;
      int partition_;
    };

    auto sort_cmp = api::SortComparator(conf_);
    for (int p = 0; p < num_partitions_; ++p) {
      std::vector<api::KeyedPair>& pairs =
          buffered_[static_cast<size_t>(p)];
      if (pairs.empty()) continue;
      reporter_->IncrCounter(api::counters::kTaskGroup,
                             api::counters::kCombineInputRecords,
                             static_cast<int64_t>(pairs.size()));
      work_.Add(sim::CpuLayer::kSort, pairs.size(), 0);
      work_.Add(sim::CpuLayer::kReduce, pairs.size(), 0);
      api::SortPairs(conf_, &pairs);
      api::SortedPairsGroupSource groups(sort_cmp, &pairs);
      EmitCollector emit(this, p);
      M3R_RETURN_NOT_OK(api::RunCombine(conf_, groups, emit, *reporter_));
      pairs.clear();
    }
    return Status::OK();
  }

  /// The buffered emits' key serialization, and the combiner's sorts and
  /// input records.
  const sim::CpuWork& work() const { return work_; }

 private:
  const JobConf& conf_;
  ShuffleExchange* shuffle_;
  api::Partitioner* partitioner_;
  int src_place_;
  int worker_lane_;
  int num_partitions_;
  bool mapper_immutable_;
  bool combiner_immutable_;
  api::Reporter* reporter_;
  TaskCounter cloned_pairs_;
  TaskCounter output_records_;
  std::vector<std::vector<api::KeyedPair>> buffered_;
  sim::CpuWork work_;
};

/// Routes mapper output into the shuffle. A lane's hash-combine table
/// drains through CollectSerialized, handing over the bytes it already
/// holds so remote pairs are not serialized a second time.
class ShuffleCollector : public api::OutputCollector,
                         public api::SerializedPairSink {
 public:
  ShuffleCollector(ShuffleExchange* shuffle, api::Partitioner* partitioner,
                   int src_place, int worker_lane, int num_partitions,
                   bool immutable, api::Reporter* reporter)
      : shuffle_(shuffle), partitioner_(partitioner), src_place_(src_place),
        worker_lane_(worker_lane), num_partitions_(num_partitions),
        immutable_(immutable),
        output_records_(reporter, api::counters::kTaskGroup,
                        api::counters::kMapOutputRecords) {}

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    int partition =
        partitioner_->GetPartition(*key, *value, num_partitions_);
    shuffle_->Emit(src_place_, partition, key, value, immutable_,
                   worker_lane_);
    output_records_.Add();
  }

  void CollectSerialized(const WritablePtr& key, const WritablePtr& value,
                         std::string_view key_bytes,
                         std::string_view value_bytes) override {
    int partition =
        partitioner_->GetPartition(*key, *value, num_partitions_);
    shuffle_->EmitSerialized(src_place_, partition, key, value, key_bytes,
                             value_bytes, worker_lane_);
    output_records_.Add();
  }

 private:
  ShuffleExchange* shuffle_;
  api::Partitioner* partitioner_;
  int src_place_;
  int worker_lane_;
  int num_partitions_;
  bool immutable_;
  TaskCounter output_records_;
};

/// Collects final output: into a cache sequence (alias or clone per the
/// producer's immutability) and optionally through a RecordWriter to the
/// DFS (skipped entirely for temporary outputs, paper §4.2.3).
class OutputSeqCollector : public api::OutputCollector {
 public:
  OutputSeqCollector(bool immutable, api::RecordWriter* writer,
                     api::Reporter* reporter, const char* records_counter)
      : immutable_(immutable), writer_(writer),
        records_(reporter, api::counters::kTaskGroup, records_counter) {}

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    WritablePtr k = immutable_ ? key : key->Clone();
    WritablePtr v = immutable_ ? value : value->Clone();
    bytes_ += k->SerializedSize() + v->SerializedSize();
    if (writer_ != nullptr) M3R_CHECK_OK(writer_->Write(*k, *v));
    seq_.emplace_back(std::move(k), std::move(v));
    records_.Add();
  }

  KVSeq TakeSeq() { return std::move(seq_); }
  uint64_t records() const { return seq_.size(); }
  uint64_t bytes() const { return bytes_; }

 private:
  bool immutable_;
  api::RecordWriter* writer_;
  TaskCounter records_;
  KVSeq seq_;
  uint64_t bytes_ = 0;
};

/// M3R-side MultipleOutputs sink: named outputs are cached (cache-aware
/// MultipleOutputs, paper §4.2.2) and, unless the job output is temporary,
/// written through their own output format.
class M3RNamedOutputSink : public api::NamedOutputSink {
 public:
  M3RNamedOutputSink(const JobConf& conf, dfs::FileSystem& fs, Cache* cache,
                     int partition, int place, bool temporary)
      : conf_(conf), fs_(fs), cache_(cache), partition_(partition),
        place_(place), temporary_(temporary) {}

  Status WriteNamed(const std::string& name, const WritablePtr& key,
                    const WritablePtr& value) override {
    Entry& e = entries_[name];
    if (!e.opened) {
      e.opened = true;
      e.path = conf_.OutputPath() + "/" + name + "-" +
               api::file_output::PartFileName(partition_);
      if (!temporary_) {
        std::string format_name =
            api::MultipleOutputs::OutputFormatFor(conf_, name);
        if (format_name.empty()) {
          return Status::InvalidArgument("unknown named output: " + name);
        }
        auto format =
            api::ObjectRegistry<api::OutputFormat>::Instance().Create(
                format_name);
        M3R_ASSIGN_OR_RETURN(e.writer,
                             format->GetRecordWriter(conf_, fs_, e.path,
                                                     place_));
      }
    }
    // Clone conservatively: MultipleOutputs carries no immutability promise.
    WritablePtr k = key->Clone();
    WritablePtr v = value->Clone();
    e.bytes += k->SerializedSize() + v->SerializedSize();
    if (e.writer != nullptr) M3R_RETURN_NOT_OK(e.writer->Write(*k, *v));
    e.seq.emplace_back(std::move(k), std::move(v));
    return Status::OK();
  }

  /// Publishes cache blocks and closes writers. `dfs_bytes` accumulates
  /// bytes that went to the DFS (for cost charging).
  Status Finish(uint64_t* dfs_bytes) {
    for (auto& [name, e] : entries_) {
      if (e.writer != nullptr) {
        M3R_RETURN_NOT_OK(e.writer->Close());
        *dfs_bytes += e.writer->BytesWritten();
      }
      M3R_RETURN_NOT_OK(cache_->PutBlock(e.path, "0", place_,
                                         std::move(e.seq), e.bytes,
                                         /*fill_seconds=*/0.0,
                                         /*droppable=*/!temporary_,
                                         /*whole_file=*/true));
    }
    entries_.clear();
    return Status::OK();
  }

 private:
  struct Entry {
    bool opened = false;
    std::string path;
    std::unique_ptr<api::RecordWriter> writer;
    KVSeq seq;
    uint64_t bytes = 0;
  };
  const JobConf& conf_;
  dfs::FileSystem& fs_;
  Cache* cache_;
  int partition_;
  int place_;
  bool temporary_;
  std::map<std::string, Entry> entries_;
};

/// m3r.cache.checkpoint: which cache-only outputs spill to the DFS, in the
/// order of the knob row's values.
enum class CheckpointPolicy { kOff, kTempOut, kAll };

/// Metric values reported together, in catalogue rows.
using MetricValues = std::vector<std::pair<metric::Id, int64_t>>;

struct TaskPlan {
  api::InputSplitPtr split;
  int place = 0;
  bool cache_hit = false;
  /// Split geometry did not line up with the cached blocks, but the whole
  /// file is cached as a single block: the start==0 split serves the block
  /// and its sibling splits serve nothing. This is how M3R fulfils "input
  /// split invocations from the key value sequence" (§3.2.1) even when a
  /// splitable format re-chops a cache-only (temporary) file.
  bool whole_file_hit = false;
  bool empty_hit = false;
  std::optional<std::string> cache_path;
  std::string block_name;
  bool local_read = false;
  /// Served by promoting the split's file from the L2 tier back into L1:
  /// charged the tier's memory/network cost instead of a DFS re-read.
  bool l2_hit = false;
  /// The promotion's bytes crossed places (home shard elsewhere).
  bool l2_remote = false;
  uint64_t input_bytes = 0;
  // Filled during execution.
  Status status;
  sim::CpuWork work;
  /// This task's share of its lane table's drain (ChargeDrain).
  double drain_seconds = 0;
  uint64_t output_bytes = 0;  // map-only jobs
  /// Completed once at a place that later died, and re-run on a survivor:
  /// the re-execution is charged to the recovery phase, not to the
  /// crash-free map phase.
  bool replayed = false;
};

/// Whether a task at `t.place` reads its split without crossing the
/// network: a cache hit, or a DFS replica of the split on that place.
bool LocalRead(const TaskPlan& t, const std::vector<int>& locations,
               int num_places) {
  return t.cache_hit ||
         std::any_of(locations.begin(), locations.end(),
                     [&](int n) { return n % num_places == t.place; });
}

/// Clears the per-job fault injector and integrity context from the base
/// file system and the cache, whatever the exit path.
struct FaultGuard {
  dfs::FileSystem* fs;
  Cache* cache;
  ~FaultGuard() {
    fs->SetFaultInjector(nullptr);
    fs->SetIntegrity(nullptr);
    cache->SetIntegrity(nullptr);
  }
};

/// Pins the job's input and output subtrees for the submission: no
/// admission may evict the data a running job is mapping over or
/// publishing (pins also shield the reuse registry entries rooted
/// under them).
struct PinGuard {
  memgov::CacheManager* mgr;
  std::vector<std::string> paths;
  void Add(const std::string& p) {
    mgr->Pin(p);
    paths.push_back(p);
  }
  void ReleaseAll() {
    for (const std::string& p : paths) mgr->Unpin(p);
    paths.clear();
  }
  ~PinGuard() { ReleaseAll(); }
};

/// Overflow-run storage for the pipelined shuffle: one DFS file per spilled
/// run under the job's checkpoint-root scratch directory. The exchange
/// stamps/verifies run CRCs itself, so this sink is plain byte transport.
class CheckpointRunSpillSink : public RunSpillSink {
 public:
  CheckpointRunSpillSink(dfs::FileSystem* fs, std::string dir)
      : fs_(fs), dir_(std::move(dir)) {}
  ~CheckpointRunSpillSink() override {
    // Best-effort sweep; spilled runs are job-scoped scratch.
    if (used_.load(std::memory_order_relaxed)) {
      fs_->Delete(dir_, /*recursive=*/true);
    }
  }
  Status Write(const std::string& id, const std::string& bytes) override {
    used_.store(true, std::memory_order_relaxed);
    return fs_->WriteFile(dir_ + "/" + id, bytes);
  }
  Status Read(const std::string& id, std::string* bytes) override {
    M3R_ASSIGN_OR_RETURN(*bytes, fs_->ReadFile(dir_ + "/" + id));
    return Status::OK();
  }

 private:
  dfs::FileSystem* const fs_;
  const std::string dir_;
  std::atomic<bool> used_{false};
};

/// A cache block's pairs in the X10 wire format, stamped with their
/// CRC32C: the unit the L2 tier holds and the checkpoint spills.
l2cache::BlockPayload FreezeBlock(const KVSeq& pairs,
                                  serialize::DedupMode mode,
                                  std::string block_name, int place,
                                  uint64_t bytes, bool whole_file) {
  x10rt::Channel ch(mode);
  for (const auto& [k, v] : pairs) {
    ch.Send(k);
    ch.Send(v);
  }
  l2cache::BlockPayload p;
  p.block_name = std::move(block_name);
  p.place = place;
  p.bytes = bytes;
  p.whole_file = whole_file;
  p.wire = std::move(ch.Finish().bytes);
  p.crc = crc32c::Crc32c(p.wire);
  return p;
}

l2cache::BlockPayload FreezeBlock(const Cache::Block& block,
                                  serialize::DedupMode mode) {
  return FreezeBlock(*block.pairs, mode, block.info.name, block.info.place,
                     block.bytes, block.info.whole_file);
}

/// One checkpoint spill file: a "place bytes crc whole_file" header line,
/// then the wire bytes. The CRC stamp is unconditional (like the DFS's
/// block checksums) so a restore under any integrity mode can verify it.
std::string CheckpointRecord(const l2cache::BlockPayload& p) {
  return std::to_string(p.place) + " " + std::to_string(p.bytes) + " " +
         std::to_string(p.crc) + " " + (p.whole_file ? "1" : "0") + "\n" +
         p.wire;
}

/// Every record of `split`, read through the conf's input format.
Result<KVSeq> ReadAllPairs(const JobConf& conf, const api::InputSplit& split,
                           dfs::FileSystem& fs) {
  M3R_ASSIGN_OR_RETURN(
      auto reader,
      api::MakeInputFormat(conf)->GetRecordReader(split, conf, fs));
  KVSeq seq;
  for (;;) {
    WritablePtr k = reader->CreateKey();
    WritablePtr v = reader->CreateValue();
    if (!reader->Next(*k, *v)) break;
    seq.emplace_back(std::move(k), std::move(v));
  }
  reader->Close();
  return seq;
}

KVSeq ThawPairs(const std::string& wire) {
  std::vector<serialize::WritablePtr> objs = x10rt::Channel::Decode(wire);
  KVSeq seq;
  seq.reserve(objs.size() / 2);
  for (size_t i = 0; i + 1 < objs.size(); i += 2) {
    seq.emplace_back(objs[i], objs[i + 1]);
  }
  return seq;
}

}  // namespace

M3REngine::M3REngine(std::shared_ptr<dfs::FileSystem> base_fs,
                     M3REngineOptions options)
    : base_fs_(std::move(base_fs)),
      options_(options),
      cost_(options_.cluster),
      cache_(options_.cluster.num_nodes),
      fs_(std::make_shared<M3RFileSystem>(base_fs_, &cache_)),
      places_(options_.cluster.num_nodes, options_.host_threads) {
  memgov::CacheManager::Hooks hooks;
  hooks.spill = [this](const std::string& path) {
    return SpillFileToCheckpoint(path);
  };
  // Cache::Evict notifies the manager's OnDelete (closing the loop) but
  // keeps the directory manifest: the spill above preserved the data, and
  // the manifest is how a later read notices the gap and heals it.
  hooks.evict = [this](const std::string& path) { return cache_.Evict(path); };
  hooks.has_backing = [this](const std::string& path) {
    return base_fs_->Exists(path);
  };
  // The manager is the two-tier subclass (DESIGN.md §16); the L2 tier
  // stays dormant until a job enables it (m3r.cache.l2.share > 0 under a
  // governed budget), at which point evictions demote through `freeze`
  // and misses promote through `thaw`.
  l2cache::L2Hooks l2_hooks;
  l2_hooks.freeze = [this](const std::string& path,
                           std::vector<l2cache::BlockPayload>* out) {
    return FreezePayloads(path, out);
  };
  l2_hooks.thaw = [this](const std::string& path,
                         const std::vector<l2cache::BlockPayload>& payloads) {
    return ThawPayloads(path, payloads);
  };
  l2_hooks.spill = [this](const std::string& path,
                          const std::vector<l2cache::BlockPayload>& payloads) {
    return SpillPayloadsToCheckpoint(path, payloads);
  };
  l2_hooks.has_backing = [this](const std::string& path) {
    return base_fs_->Exists(path);
  };
  auto tiered = std::make_unique<l2cache::TieredCacheManager>(
      &governor_, std::move(hooks), std::move(l2_hooks));
  tiered_ = tiered.get();
  cache_manager_ = std::move(tiered);
  cache_.SetManager(cache_manager_.get());
  // Victim-cache overflow (DESIGN.md §16.2): a fill L1's admission bounced
  // is serialized straight into its L2 home shard, so a block that lost
  // the L1 race — typically to another consumer's pressure mid-phase — is
  // still tier-resident for the next pass instead of a DFS re-read.
  cache_.SetOverflowSink([this](const std::string& path,
                                const std::string& block_name, int place,
                                const kvstore::KVSeq& pairs, uint64_t bytes,
                                bool whole_file) {
    if (!tiered_->L2Enabled()) return;
    (void)tiered_->AcceptOverflow(
        path, base_fs_->Exists(path),
        FreezeBlock(pairs, options_.dedup_mode, block_name, place, bytes,
                    whole_file));
  });
  // Clients read cache-only outputs through fs_ (ListStatus union,
  // GetCacheRecordReader) without going through job submission, so the
  // FS must be able to restore what a later job's admissions spilled —
  // from the L2 tier first (a move back into L1), then from the checkpoint.
  fs_->SetHealHook([this](const std::string& dir) {
    tiered_->PromoteUnder(dir, /*only_unbacked=*/true, nullptr);
    return RestoreDirFromCheckpoint(dir, /*only_missing=*/true, nullptr,
                                    nullptr, nullptr);
  });
  governor_.RegisterGauge("shuffle.pool", [this] {
    // Pooled lane buffers plus the running job's resident sorted runs
    // (pipelined shuffle) — both are shuffle-owned memory the governor
    // meters against the budget.
    return buffer_pool_.ResidentBytes() +
           shuffle_run_bytes_.load(std::memory_order_relaxed);
  });
  governor_.RegisterGauge("hashcombine", [this] {
    int64_t v = hash_combine_bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  });
}

M3REngine::~M3REngine() {
  WaitForCheckpoints();
  cache_.SetManager(nullptr);
  cache_manager_.reset();
}

void M3REngine::WaitForCheckpoints() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    threads.swap(ckpt_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

std::vector<std::string> M3REngine::AllCacheOnlyFiles() {
  std::vector<std::string> out;
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    auto list_or = cache_.store().List(dir);
    if (!list_or.ok()) continue;
    for (const kvstore::PathInfo& info : *list_or) {
      if (info.is_directory) {
        stack.push_back(info.path);
      } else if (!info.blocks.empty() && !base_fs_->Exists(info.path)) {
        out.push_back(info.path);
      }
    }
  }
  return out;
}

void M3REngine::ScheduleCheckpoint(std::vector<std::string> files) {
  struct FileSnap {
    std::string path;
    std::vector<Cache::Block> blocks;
  };
  // Snapshot the blocks up front: pair sequences are shared_ptrs, so the
  // spill thread works off an immutable view even if the cache moves on.
  std::map<std::string, std::vector<FileSnap>> by_dir;
  for (const std::string& f : files) {
    auto blocks_or = cache_.GetFileBlocks(f);
    if (!blocks_or.ok() || blocks_or->empty()) continue;
    size_t slash = f.find_last_of('/');
    std::string dir = slash == 0 ? "/" : f.substr(0, slash);
    by_dir[dir].push_back(FileSnap{f, blocks_or.take()});
  }
  if (by_dir.empty()) return;
  auto base = base_fs_;
  serialize::DedupMode mode = options_.dedup_mode;
  // Meter the snapshot the spill thread keeps alive ("checkpoint.queue"
  // consumer): the shared_ptr'd pair sequences pin their memory until the
  // spill lands, which the governor must see.
  uint64_t queued_bytes = 0;
  for (const auto& [dir, group] : by_dir) {
    for (const FileSnap& file : group) {
      for (const Cache::Block& block : file.blocks) queued_bytes += block.bytes;
    }
  }
  governor_.AddUsage("checkpoint.queue", static_cast<int64_t>(queued_bytes));
  // Under governance, eviction spills share the checkpoint directories and
  // must survive this thread's stale-spill cleanup: skip the pre-delete
  // and overwrite in place instead.
  const bool clean_stale = !governor_.governed();
  std::thread worker([this, base, mode, clean_stale, queued_bytes,
                      snap = std::move(by_dir)]() {
    for (const auto& [dir, group] : snap) {
      const std::string cdir =
          std::string(kCheckpointRoot) + (dir == "/" ? "" : dir);
      if (clean_stale) {
        base->Delete(cdir, true);  // stale spill from an earlier sequence
      }
      bool all_ok = true;
      for (const FileSnap& file : group) {
        std::string name = file.path.substr(file.path.find_last_of('/') + 1);
        for (const Cache::Block& block : file.blocks) {
          Status st =
              base->WriteFile(cdir + "/" + name + ".blk." + block.info.name,
                              CheckpointRecord(FreezeBlock(block, mode)));
          if (!st.ok()) {
            all_ok = false;
            M3R_LOG(Warn) << "checkpoint spill of " << file.path
                          << " failed: " << st.ToString();
          }
        }
      }
      // The marker commits the directory: restores ignore markerless spills.
      if (all_ok) {
        Status st = base->WriteFile(cdir + "/_DONE", "1\n");
        if (!st.ok()) {
          M3R_LOG(Warn) << "checkpoint marker for " << cdir
                        << " failed: " << st.ToString();
        }
      }
    }
    governor_.AddUsage("checkpoint.queue",
                       -static_cast<int64_t>(queued_bytes));
  });
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  ckpt_threads_.push_back(std::move(worker));
}

Status M3REngine::SpillFileToCheckpoint(const std::string& path) {
  std::vector<l2cache::BlockPayload> payloads;
  M3R_RETURN_NOT_OK(FreezePayloads(path, &payloads));
  return SpillPayloadsToCheckpoint(path, payloads);
}

Status M3REngine::FreezePayloads(const std::string& path,
                                 std::vector<l2cache::BlockPayload>* out) {
  M3R_ASSIGN_OR_RETURN(std::vector<Cache::Block> blocks,
                       cache_.GetFileBlocks(path));
  if (blocks.empty()) return Status::NotFound("nothing cached: " + path);
  for (const Cache::Block& block : blocks) {
    out->push_back(FreezeBlock(block, options_.dedup_mode));
  }
  return Status::OK();
}

Status M3REngine::ThawPayloads(
    const std::string& path,
    const std::vector<l2cache::BlockPayload>& payloads) {
  for (const l2cache::BlockPayload& p : payloads) {
    if (cache_.GetBlock(path, p.block_name)) continue;  // already resident
    if (crc32c::Crc32c(p.wire) != p.crc) {
      return Status::DataLoss("L2 payload checksum mismatch: " + path);
    }
    M3R_RETURN_NOT_OK(cache_.PutBlock(path, p.block_name, p.place,
                                      ThawPairs(p.wire), p.bytes,
                                      /*fill_seconds=*/0.0,
                                      /*droppable=*/false, p.whole_file));
  }
  return Status::OK();
}

Status M3REngine::SpillPayloadsToCheckpoint(
    const std::string& path,
    const std::vector<l2cache::BlockPayload>& payloads) {
  if (payloads.empty()) return Status::NotFound("no payloads: " + path);
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == 0 ? "/" : path.substr(0, slash);
  const std::string name = path.substr(slash + 1);
  const std::string cdir =
      std::string(kCheckpointRoot) + (dir == "/" ? "" : dir);
  for (const l2cache::BlockPayload& p : payloads) {
    M3R_RETURN_NOT_OK(base_fs_->WriteFile(
        cdir + "/" + name + ".blk." + p.block_name, CheckpointRecord(p)));
  }
  return base_fs_->WriteFile(cdir + "/_DONE", "1\n");
}

uint64_t M3REngine::InputVersion(const std::string& path) {
  auto status_or = fs_->GetFileStatus(path);
  if (!status_or.ok()) return 0;
  if (!status_or->is_directory) {
    return status_or->length * 1000003u +
           static_cast<uint64_t>(status_or->mtime);
  }
  uint64_t version = 0;
  auto list_or = fs_->ListStatus(path);
  if (!list_or.ok()) return 0;
  for (const dfs::FileStatus& e : *list_or) {
    version = version * 31 + InputVersion(e.path);
  }
  return version;
}

Status M3REngine::RestoreDirFromCheckpoint(const std::string& dir,
                                           bool only_missing, int* files,
                                           uint64_t* bytes,
                                           const IntegrityContext* integrity) {
  const std::string cdir = std::string(kCheckpointRoot) + dir;
  if (!base_fs_->Exists(cdir + "/_DONE")) return Status::OK();
  M3R_ASSIGN_OR_RETURN(std::vector<dfs::FileStatus> entries,
                       base_fs_->ListStatus(cdir));
  for (const dfs::FileStatus& e : entries) {
    if (e.is_directory) continue;
    std::string name = e.path.substr(e.path.find_last_of('/') + 1);
    if (name == "_DONE") continue;
    size_t sep = name.rfind(".blk.");
    if (sep == std::string::npos) continue;
    std::string target = dir + "/" + name.substr(0, sep);
    std::string block_name = name.substr(sep + 5);
    if (only_missing && cache_.GetBlock(target, block_name)) continue;
    M3R_ASSIGN_OR_RETURN(std::string content, base_fs_->ReadFile(e.path));
    size_t nl = content.find('\n');
    if (nl == std::string::npos) {
      return Status::IOError("corrupt checkpoint: " + e.path);
    }
    char* rest = nullptr;
    std::string header = content.substr(0, nl);
    long place = std::strtol(header.c_str(), &rest, 10);
    char* after_est = nullptr;
    uint64_t est = std::strtoull(rest, &after_est, 10);
    place = place % std::max(places_.NumPlaces(), 1);
    std::string payload = content.substr(nl + 1);
    // Third header field (absent in pre-integrity spills): the payload's
    // CRC32C, verified before any byte reaches the channel decoder.
    char* after_crc = nullptr;
    uint64_t stored_crc = std::strtoull(after_est, &after_crc, 10);
    if (integrity != nullptr && integrity->enabled() &&
        after_crc != after_est) {
      integrity->counters->bytes_checksummed.fetch_add(
          static_cast<int64_t>(payload.size()), std::memory_order_relaxed);
      if (crc32c::Crc32c(payload) != static_cast<uint32_t>(stored_crc)) {
        integrity->counters->detected.fetch_add(1, std::memory_order_relaxed);
        return Status::DataLoss("checkpoint checksum mismatch: " + e.path);
      }
    }
    // Fourth header field (absent in older spills): whole-file flag,
    // restored so the replanner's whole-file fallback keeps working for
    // healed output blocks without ever applying to healed input spills.
    char* after_wf = nullptr;
    uint64_t whole_file = std::strtoull(after_crc, &after_wf, 10);
    if (after_wf == after_crc) whole_file = 0;
    M3R_RETURN_NOT_OK(cache_.PutBlock(target, block_name,
                                      static_cast<int>(place),
                                      ThawPairs(payload), est,
                                      /*fill_seconds=*/0.0,
                                      /*droppable=*/false,
                                      whole_file != 0));
    if (files != nullptr) ++*files;
    if (bytes != nullptr) *bytes += est;
  }
  return Status::OK();
}

Result<int> M3REngine::PrepopulateCache(const api::JobConf& conf) {
  auto input_format = api::MakeInputFormat(conf);
  M3R_ASSIGN_OR_RETURN(
      std::vector<api::InputSplitPtr> splits,
      input_format->GetSplits(conf, *fs_, options_.cluster.total_slots()));
  std::atomic<int> loaded{0};
  std::vector<Status> statuses(splits.size());
  places_.FinishFor(splits.size(), [&](size_t i) {
    const api::InputSplit& split = *splits[i];
    auto name = Cache::NameForSplit(split);
    if (!name) return;
    if (cache_.GetBlock(*name, Cache::BlockNameForSplit(split))) return;
    // Route the read to the place that would own the split.
    const api::InputSplit* base_split = nullptr;
    JobConf tconf = api::SpecializeConfForSplit(conf, split, &base_split);
    Result<KVSeq> seq = ReadAllPairs(tconf, *base_split, *fs_);
    if (!seq.ok()) {
      statuses[i] = seq.status();
      return;
    }
    int place = 0;
    auto locs = split.GetLocations();
    if (const auto* placed = FindPlacedSplit(split)) {
      place = StablePlaceOfPartition(placed->GetPlacedPartition(),
                                     places_.NumPlaces());
    } else if (!locs.empty()) {
      place = locs[0] % places_.NumPlaces();
    } else {
      place = static_cast<int>(i) % places_.NumPlaces();
    }
    // The `cost` policy's refill cost: the split's RecordReader pass.
    sim::CpuWork parse;
    parse.Add(sim::CpuLayer::kMap, 0, split.GetLength());
    statuses[i] = cache_.PutBlock(*name, Cache::BlockNameForSplit(split),
                                  place, seq.take(), split.GetLength(),
                                  cost_.Cpu(parse), /*droppable=*/true);
    if (statuses[i].ok()) ++loaded;
  });
  for (auto& st : statuses) {
    if (!st.ok()) return st;
  }
  return loaded.load();
}

/// One submission's run through the engine (DESIGN.md §5, job lifecycle):
/// the per-job state every phase shares, and the phases in the order
/// Execute calls them. Every exit, success or failure, leaves through
/// Finish.
class M3REngine::JobRun {
 public:
  JobRun(M3REngine* engine, const api::JobConf& conf)
      : e_(*engine),
        spec_(engine->options_.cluster),
        num_places_(engine->places_.NumPlaces()),
        conf_(conf),
        fault_guard_{engine->base_fs_.get(), &engine->cache_},
        pins_{engine->cache_manager_.get(), {}},
        membership_(num_places_),
        place_attempts_(static_cast<size_t>(num_places_)) {}
  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  api::JobResult Run() { return Finish(Execute()); }

 private:
  struct ReduceResult {
    Status status;
    sim::CpuWork work;
    /// The partition's sort, charged to the job-wide `sort` phase.
    sim::CpuWork sort;
    uint64_t output_bytes = 0;
  };

  Status Execute() {
    // Job wrapping and split routing come first; every phase starts after.
    clock_.Charge(phase::kJobOverhead, spec_.m3r_job_overhead_s);
    M3R_RETURN_NOT_OK(Configure());
    if (ServedFromReuse()) return Status::OK();
    M3R_RETURN_NOT_OK(ClaimOutput());
    if (RestoredFromCheckpoint()) return Status::OK();
    M3R_RETURN_NOT_OK(Plan());
    M3R_RETURN_NOT_OK(RunMap());
    if (num_reduce_ > 0) {
      M3R_RETURN_NOT_OK(Shuffle());
      M3R_RETURN_NOT_OK(Reduce());
    }
    return Commit();
  }

  /// Validates the conf, then installs the job's governance, fault and
  /// integrity settings on the engine; a rejected conf installs none.
  Status Configure() {
    M3R_RETURN_NOT_OK(api::knobs::ValidateKnobs(conf_));
    // Distributed-cache contents are installed into the configuration tasks
    // see. M3R localizes through its own FS view, so cache-resident
    // (temporary) side files work too; places are long-lived so no per-job
    // localization cost is charged (paper §5.3).
    if (conf_.Contains(api::conf::kCacheFiles)) {
      M3R_ASSIGN_OR_RETURN(auto localized,
                           api::DistributedCache::Localize(conf_, *e_.fs_));
      api::DistributedCache::InstallIntoConf(localized, &conf_);
    }
    num_reduce_ = conf_.NumReduceTasks();
    salt_ = ++e_.job_counter_;
    // Temporary outputs only exist by virtue of the cache; with the cache
    // ablated, every output must be materialized (Hadoop behavior).
    temporary_ = e_.options_.enable_cache &&
                 Cache::IsTemporary(conf_, conf_.OutputPath());

    checkpoint_ = static_cast<CheckpointPolicy>(
        api::knobs::Choice(conf_, api::conf::kCacheCheckpoint));
    // Mid-job place-failure recovery (DESIGN.md §14). A crash budget of 0
    // turns recovery off: any place crash fails the whole job, the paper's
    // behaviour.
    max_crashes_ = static_cast<int>(
        api::knobs::Int(conf_, api::conf::kPlaceRecoveryMaxCrashes));
    crash_script_ = api::knobs::CrashScript(conf_, api::conf::kPlaceCrashAt);
    reuse_exact_ = api::knobs::String(conf_, api::conf::kCacheReuse) == "exact";
    // Per-job fault injection (tests and resilience drills): faults at the
    // DFS sites fire through the base file system. End-to-end integrity
    // (m3r.integrity.mode) is installed on the base file system (block
    // checksums) and the cache (block fingerprints), and carried by the
    // shuffle for its frames. Both are cleared when the job leaves.
    fault_ = FaultInjector::FromSites(
        api::knobs::Uint64(conf_, api::conf::kFaultSeed),
        api::knobs::FaultSites(conf_));
    integrity_ = IntegrityContext::ForJob(
        static_cast<IntegrityMode>(
            api::knobs::Choice(conf_, api::conf::kIntegrityMode)),
        fault_);

    // Memory governance (DESIGN.md §11): re-read per submission so a job
    // sequence can tighten or lift the budget between jobs.
    memgov::MemoryGovernor& governor = e_.governor_;
    governor.SetBudget(static_cast<uint64_t>(api::knobs::Int(
                           conf_, api::conf::kMemoryBudgetMb))
                       << 20);
    // Set on every job, so one job's share never outlives it.
    governor.SetShare("cache",
                      api::knobs::Double(conf_, api::conf::kMemoryShareCache));
    e_.cache_manager_->Configure(
        static_cast<memgov::EvictionPolicy>(
            api::knobs::Choice(conf_, api::conf::kCachePolicy)),
        api::knobs::Double(conf_, api::conf::kMemoryHighWatermark),
        api::knobs::Double(conf_, api::conf::kMemoryLowWatermark));
    // Two-tier cache (DESIGN.md §16): every place donates m3r.cache.l2.share
    // of the budget to the tier, so ring-wide capacity is share * budget *
    // places — the aggregate-memory thesis: the cluster holds N times what
    // one place can. Re-rung per submission (a place dead last job is
    // healthy again on the next).
    std::vector<int> ring_places(static_cast<size_t>(num_places_));
    for (size_t i = 0; i < ring_places.size(); ++i) {
      ring_places[i] = static_cast<int>(i);
    }
    const double l2_share = api::knobs::Double(conf_, api::conf::kCacheL2Share);
    e_.tiered_->ConfigureL2(
        governor.governed() && l2_share > 0.0, ring_places,
        static_cast<int>(api::knobs::Int(conf_, api::conf::kCacheL2VNodes)),
        static_cast<uint64_t>(l2_share *
                              static_cast<double>(governor.budget()) *
                              static_cast<double>(ring_places.size())));
    governor.ResetPeak();

    e_.base_fs_->SetFaultInjector(fault_);
    e_.base_fs_->SetIntegrity(integrity_);
    e_.cache_.SetIntegrity(integrity_);
    for (const std::string& in : conf_.InputPaths()) {
      pins_.Add(path::Canonicalize(in));
    }
    if (!conf_.OutputPath().empty()) {
      pins_.Add(path::Canonicalize(conf_.OutputPath()));
    }
    mg0_ = e_.cache_manager_->counters();
    l20_ = e_.tiered_->l2_counters();
    l2_on_ = e_.tiered_->L2Enabled();
    return Status::OK();
  }

  /// ReStore-style cross-job output reuse (m3r.cache.reuse=exact): a job
  /// whose lineage signature — inputs (+ content versions), configuration
  /// minus volatile keys, mapper/reducer/combiner identity — matches a
  /// previously registered output short-circuits to that output, skipping
  /// the map and reduce phases entirely.
  bool ServedFromReuse() {
    if (!e_.options_.enable_cache || !reuse_exact_) return false;
    lineage_sig_ = memgov::LineageSignature(
        conf_, [this](const std::string& p) { return e_.InputVersion(p); });
    const std::string out = path::Canonicalize(conf_.OutputPath());
    std::optional<std::string> src =
        e_.cache_manager_->LookupReuse(lineage_sig_);
    if (!src) return false;
    // An identical output path is already in place. Same lineage under a new
    // temporary name: clone the registered output's cached blocks to the new
    // path, leasing the source directory for the whole clone so a
    // concurrent admission cannot claim one of its files between
    // LookupReuse and the copy.
    if (*src != out) {
      if (!temporary_ || e_.fs_->Exists(out)) return false;
      memgov::CacheManager::ReadLease reuse_lease = e_.cache_.LeaseRead(*src);
      for (const std::string& f : e_.cache_.FilesUnder(*src)) {
        auto blocks_or = e_.cache_.GetFileBlocks(f);
        Status st = blocks_or.status();
        const std::string dst = out + f.substr(src->size());
        for (size_t b = 0; st.ok() && b < blocks_or->size(); ++b) {
          const Cache::Block& block = (*blocks_or)[b];
          if (block.pairs == nullptr) continue;
          st = e_.cache_.PutBlock(dst, block.info.name, block.info.place,
                                  *block.pairs, block.bytes,
                                  /*fill_seconds=*/0.0, /*droppable=*/false,
                                  block.info.whole_file);
          if (!st.ok()) {
            M3R_LOG(Warn) << "reuse clone of " << f
                          << " failed: " << st.ToString();
          }
        }
        if (!st.ok()) {
          e_.cache_.Delete(out);
          return false;
        }
      }
    }
    metrics::Set(&result_, metric::kReusedFromCache, 1);
    return true;
  }

  Status ClaimOutput() {
    output_format_ = api::MakeOutputFormat(conf_);
    if (temporary_) {
      if (e_.fs_->Exists(conf_.OutputPath())) {
        return Status::AlreadyExists("output exists: " + conf_.OutputPath());
      }
    } else {
      M3R_RETURN_NOT_OK(output_format_->CheckOutputSpecs(conf_, *e_.fs_));
      api::FileOutputCommitter committer;
      M3R_RETURN_NOT_OK(committer.SetupJob(conf_, *e_.fs_));
    }
    output_claimed_ = true;
    return Status::OK();
  }

  /// Recovery: a fresh (restarted) instance finds the temporary output
  /// already spilled to the DFS — reload it into the cache and skip the job
  /// instead of re-running it (replay from the last materialized output).
  bool RestoredFromCheckpoint() {
    if (!temporary_ || checkpoint_ == CheckpointPolicy::kOff) return false;
    int files = 0;
    uint64_t bytes = 0;
    Status st =
        e_.RestoreDirFromCheckpoint(conf_.OutputPath(), /*only_missing=*/false,
                                    &files, &bytes, integrity_.get());
    if (!st.ok()) {
      M3R_LOG(Warn) << "checkpoint restore of " << conf_.OutputPath()
                    << " failed, running the job: " << st.ToString();
      e_.cache_.Delete(conf_.OutputPath());
      return false;
    }
    if (files == 0) return false;
    metrics::Set(&result_, metric::kRecoveredFromCheckpoint, 1);
    metrics::Set(&result_, metric::kRecoveredFiles, files);
    metrics::Set(&result_, metric::kRecoveredBytes,
                 static_cast<int64_t>(bytes));
    clock_.Charge(phase::kCheckpointRestore,
                  e_.cost_.DfsRead(bytes, /*local=*/false));
    return true;
  }

  Status Plan() {
    // Heal, then check completeness: anything still short after the heal is
    // unrecoverable — fail with a retriable DataLoss rather than silently
    // computing on the survivors. The job-entry heal is not charged.
    HealInputs();
    std::vector<std::string> missing;
    const std::string incomplete = IncompleteInput(&missing);
    if (!incomplete.empty()) {
      std::string what;
      for (const std::string& m : missing) {
        if (!what.empty()) what += ", ";
        what += m;
      }
      return Status::DataLoss("cache-only input '" + incomplete +
                              "' is incomplete: " + what);
    }

    auto input_format = api::MakeInputFormat(conf_);
    M3R_ASSIGN_OR_RETURN(
        std::vector<api::InputSplitPtr> splits,
        input_format->GetSplits(conf_, *e_.fs_, spec_.total_slots()));
    tasks_.resize(splits.size());
    int64_t cache_hits = 0;
    // Files this job pulled back from the L2 tier (path -> crossed places):
    // every split the promotion turned into a hit charges the tier's cost
    // instead of a DFS re-read.
    std::map<std::string, bool> l2_promoted;
    for (size_t i = 0; i < splits.size(); ++i) {
      tasks_[i].split = splits[i];
      if (PlanTask(&tasks_[i], &l2_promoted)) ++cache_hits;
    }
    const int64_t cache_misses =
        static_cast<int64_t>(tasks_.size()) - cache_hits;
    metrics::Set(&result_, metric::kMapTasks,
                 static_cast<int64_t>(tasks_.size()));
    metrics::Set(&result_, metric::kCacheHitSplits, cache_hits);
    metrics::Set(&result_, metric::kCacheMissSplits, cache_misses);
    // Mirror the split-level outcome into the cache manager so its counters
    // (the policy-comparison view) agree with the job counters.
    for (int64_t i = 0; i < cache_hits; ++i) e_.cache_manager_->RecordHit();
    for (int64_t i = 0; i < cache_misses; ++i) e_.cache_manager_->RecordMiss();

    tasks_of_place_.resize(static_cast<size_t>(num_places_));
    for (size_t i = 0; i < tasks_.size(); ++i) {
      tasks_of_place_[static_cast<size_t>(tasks_[i].place)].push_back(i);
    }
    // Intra-place worker strands (the paper's "8 worker threads to exploit
    // the 8 cores"): a per-job override, else the engine option, else
    // hardware threads spread across the places.
    workers_ =
        static_cast<int>(api::knobs::Int(conf_, api::conf::kPlaceWorkers));
    if (workers_ == 0) workers_ = e_.options_.workers_per_place;
    if (workers_ <= 0) {
      int hw = static_cast<int>(std::thread::hardware_concurrency());
      workers_ = std::max(1, hw / std::max(num_places_, 1));
    }
    metrics::Set(&result_, metric::kPlaceWorkers, workers_);
    SetUpShuffle();
    return Status::OK();
  }

  /// Decides where split `t->split` is served from (L1, L2 promotion, or a
  /// DFS read) and which place runs it. Returns whether it is a cache hit.
  bool PlanTask(TaskPlan* task, std::map<std::string, bool>* l2_promoted) {
    TaskPlan& t = *task;
    Cache& cache = e_.cache_;
    l2cache::TieredCacheManager& tiered = *e_.tiered_;
    const bool cacheable = e_.options_.enable_cache;
    t.cache_path = Cache::NameForSplit(*t.split);
    t.block_name = Cache::BlockNameForSplit(*t.split);
    t.input_bytes = t.split->GetLength();
    // L1 miss, L2 probe (DESIGN.md §16): promote the whole demoted file back
    // into the cache before deciding hit vs DFS re-read.
    if (cacheable && t.cache_path && tiered.L2Enabled() &&
        l2_promoted->find(*t.cache_path) == l2_promoted->end() &&
        !cache.GetBlock(*t.cache_path, t.block_name) &&
        tiered.L2Contains(*t.cache_path)) {
      bool remote = false;
      if (tiered.TryPromote(*t.cache_path, &remote, nullptr).ok()) {
        (*l2_promoted)[*t.cache_path] = remote;
      }
    }
    if (cacheable && t.cache_path &&
        cache.GetBlock(*t.cache_path, t.block_name)) {
      t.cache_hit = true;
    } else if (cacheable && t.cache_path) {
      // Geometry mismatch: serve from the cache anyway iff the whole file is
      // cached as a single block named "0". The block must carry the
      // fill-time whole_file stamp: an offset-0 *input* block left as the
      // sole survivor of a place crash or an admission bypass looks
      // identical by name, and treating it as the whole file would serve the
      // file's other splits as empty — silent record loss.
      auto info = cache.store().GetInfo(*t.cache_path);
      if (info.ok() && info->blocks.size() == 1 &&
          info->blocks[0].name == "0" && info->blocks[0].whole_file) {
        // Unwrap MultipleInputs' tagged splits etc.: exactly one split of the
        // file (the one starting at offset 0) serves the block.
        const api::FileSplit* fsplit = FindFileSplit(*t.split);
        bool is_first = fsplit == nullptr || fsplit->Start() == 0;
        t.cache_hit = true;
        t.whole_file_hit = is_first;
        t.empty_hit = !is_first;
        t.block_name = "0";
      }
    }
    if (t.cache_hit && !t.empty_hit && t.cache_path) {
      auto promoted = l2_promoted->find(*t.cache_path);
      if (promoted != l2_promoted->end()) {
        t.l2_hit = true;
        t.l2_remote = promoted->second;
      }
    } else if (!t.cache_hit && tiered.L2Enabled()) {
      tiered.RecordL2Miss();  // fell through to the DFS
    }

    auto locations = t.split->GetLocations();
    if (const auto* placed = FindPlacedSplit(*t.split)) {
      // PlacedSplit overrides M3R's preference for local splits (§4.3).
      t.place = PlacedHome(placed->GetPlacedPartition());
    } else if (t.cache_hit) {
      t.place = cache.GetBlock(*t.cache_path, t.block_name)->info.place;
    } else if (!locations.empty()) {
      t.place = locations[0] % num_places_;
    } else {
      t.place = e_.round_robin_++ % num_places_;
    }
    t.local_read = LocalRead(t, locations, num_places_);
    return t.cache_hit;
  }

  void SetUpShuffle() {
    ShuffleOptions& options = shuffle_options_;
    options.num_partitions = std::max(num_reduce_, 1);
    options.dedup_mode = e_.options_.dedup_mode;
    options.partition_stability = e_.options_.partition_stability;
    options.instability_salt = salt_;
    options.workers_per_place = workers_;
    options.fault = fault_;
    options.integrity = integrity_;
    options.buffer_pool = &e_.buffer_pool_;
    if (num_reduce_ > 0) {
      // Streaming shuffle (DESIGN.md §15): a flush threshold of 0 ships every
      // lane whole at the barrier, the paper's barrier exchange.
      options.flush_bytes = static_cast<size_t>(
          api::knobs::Int(conf_, api::conf::kShuffleFlushBytes));
      const int64_t budget_mb =
          api::knobs::Int(conf_, api::conf::kShufflePartitionBudgetMb);
      if (budget_mb > 0) {
        options.partition_budget_bytes = static_cast<size_t>(budget_mb) << 20;
        run_spill_sink_.emplace(e_.base_fs_.get(),
                                std::string(kCheckpointRoot) + "/_shuffle/job" +
                                    std::to_string(salt_));
        options.spill_sink = &*run_spill_sink_;
      }
      // Runs must sort exactly like the reduce-side SortPairs; the raw-byte
      // default keeps the prefix-cached kernel, anything else routes through
      // the job's comparator.
      run_sort_cmp_ = api::SortComparator(conf_);
      if (std::string_view(run_sort_cmp_->Name()) !=
          serialize::BytesComparator::kName) {
        run_cmp_ = [this](std::string_view a, std::string_view b) {
          return run_sort_cmp_->Compare(a, b);
        };
        options.run_comparator = &run_cmp_;
      }
      options.resident_gauge = &e_.shuffle_run_bytes_;
    }
    shuffle_.emplace(num_places_, options);
  }

  /// Map phase (DESIGN.md §14): places run in parallel, each fanning its
  /// tasks out over `workers_` strands of the shared executor, in rounds. A
  /// round that loses places is followed by a recovery step and a round that
  /// replays the lost work on the survivors.
  Status RunMap() {
    SyncMemgov();
    e_.ReportProgress(0.05, &result_.counters);
    // Map-side hash aggregation (decided at job scope: combiner, map-output
    // types, and grouping comparator are job-level settings, so per-split
    // conf specialization cannot change eligibility).
    lane_hash_combine_ = num_reduce_ > 0 &&
                         api::knobs::Bool(conf_, api::conf::kMapHashCombine) &&
                         api::HashCombineCollector::Eligible(conf_);
    task_done_.assign(tasks_.size(), 0);
    int crashes_handled = 0;
    for (;;) {
      RunMapRound();
      // Quiesce: the round's strands are all joined. Confirm deaths, tear
      // down once per dead place, and either recover (bounded replay) or
      // fall back to the whole-job failure below.
      const std::vector<int> newly_dead = ConfirmAndTeardown();
      if (newly_dead.empty()) break;  // crash-free round: the phase is done
      crashes_handled += static_cast<int>(newly_dead.size());
      const std::vector<int> alive = membership_.AlivePlaces();
      SyncMemgov();
      // Recovery off, budget exhausted, nobody left, or the job is failing
      // for its own reasons.
      if (max_crashes_ == 0 || crashes_handled > max_crashes_ ||
          alive.empty() || map_aborted_.load() || cancelled_.load()) {
        break;
      }
      if (!Recover(newly_dead, alive)) break;
    }

    if (Status crash = CrashStatus(); !crash.ok()) {
      // Unrecovered crash (recovery off, horizon passed, or data loss): the
      // whole-job retriable failure, charging the work that did complete so
      // the failed attempt has an honest simulated cost.
      ChargePartialMapPhase();
      crash_charged_ = true;
      return recovery_abandoned_.ok() ? crash : recovery_abandoned_;
    }
    if (cancelled_.load()) return Status::Cancelled("job cancelled");
    for (const TaskPlan& t : tasks_) M3R_RETURN_NOT_OK(t.status);
    {
      std::lock_guard<std::mutex> lock(hash_mu_);
      M3R_RETURN_NOT_OK(hash_status_);
    }
    ChargeMapPhase();
    return Status::OK();
  }

  void RunMapRound() {
    e_.places_.FinishForAll([this](int place) {
      if (membership_.IsSuspectOrDead(place)) return;
      if (!PlaceAlive(place)) {
        if (max_crashes_ == 0) map_aborted_.store(true);
        return;
      }
      const std::vector<size_t>& mine =
          tasks_of_place_[static_cast<size_t>(place)];
      if (mine.empty()) return;
      // Strand s runs tasks j with j % strands == s and owns serialization
      // lane s, so each remote stream has exactly one writer and wire bytes
      // stay deterministic for a fixed worker count.
      const size_t strands =
          std::min(mine.size(), static_cast<size_t>(workers_));
      auto strand = [&](size_t s) { RunMapStrand(place, mine, s, strands); };
      if (strands <= 1) {
        strand(0);
      } else {
        e_.places_.pool().ParallelFor(strands, strand);
      }
    });
  }

  void RunMapStrand(int place, const std::vector<size_t>& mine, size_t s,
                    size_t strands) {
    // Lane-persistent hash aggregation (the in-node combiner): one table
    // lives across every map task this strand runs, so a key repeated in
    // different splits of the place still collapses to one wire record —
    // scope no per-task (or per-spill) combiner can reach. Each strand owns
    // its lane's serialization stream, so the table drains into a
    // single-writer lane and wire bytes stay deterministic. A replay round
    // gets fresh tables, so a recovered job may carry more than one partial
    // aggregate per key — the combiner contract (run 0+ times over any
    // subset) already promises that is legal. The reporter is declared
    // first: the sink posts its record count to it on destruction.
    std::unique_ptr<api::CountersReporter> lane_reporter;
    std::shared_ptr<api::Partitioner> lane_partitioner;
    std::unique_ptr<ShuffleCollector> lane_sink;
    std::unique_ptr<api::HashCombineCollector> lane_hasher;
    if (lane_hash_combine_) {
      lane_partitioner = api::MakePartitioner(conf_);
      lane_reporter =
          std::make_unique<api::CountersReporter>(&result_.counters);
      lane_sink = std::make_unique<ShuffleCollector>(
          &*shuffle_, lane_partitioner.get(), place, static_cast<int>(s),
          num_reduce_, /*immutable=*/true, lane_reporter.get());
      lane_hasher = std::make_unique<api::HashCombineCollector>(
          conf_, lane_sink.get(), lane_reporter.get(), &e_.hash_combine_bytes_);
    }
    std::vector<size_t> fed;  // the tasks that completed into the table
    for (size_t j = s; j < mine.size(); j += strands) {
      if (map_aborted_.load(std::memory_order_relaxed)) return;
      if (e_.CancelRequested()) {
        cancelled_.store(true, std::memory_order_relaxed);
        map_aborted_.store(true);
        return;
      }
      if (membership_.IsSuspectOrDead(place)) return;
      if (ScriptedCrash(place)) {
        if (max_crashes_ == 0) map_aborted_.store(true);
        return;
      }
      RunMapTask(mine[j], place, static_cast<int>(s), lane_hasher.get());
      if (!tasks_[mine[j]].status.ok()) map_aborted_.store(true);
      fed.push_back(mine[j]);
    }
    // Survivors MUST drain their tables even when another place died this
    // round: their buffered pairs feed lanes that will be delivered. A
    // suspect place's drain would be discarded at quiesce anyway; skip it.
    if (lane_hasher != nullptr &&
        !map_aborted_.load(std::memory_order_relaxed) &&
        !membership_.IsSuspectOrDead(place)) {
      Status st = lane_hasher->Flush();
      ChargeDrain(fed, shuffle_->TakeStrandWork(place, static_cast<int>(s)));
      if (!st.ok()) {
        map_aborted_.store(true);
        std::lock_guard<std::mutex> lock(hash_mu_);
        if (hash_status_.ok()) hash_status_ = std::move(st);
      }
    }
  }

  /// Spreads the charge of a lane table's drain — its emits and the runs
  /// they flushed — over the tasks that fed the table, in proportion to the
  /// emissions each folded into it (their kReduce records). Each drained
  /// pair is so charged like an emit of the tasks it came from, on the
  /// slots they ran on.
  void ChargeDrain(const std::vector<size_t>& fed,
                   const sim::CpuWork& drained) {
    const int folded = static_cast<int>(sim::CpuLayer::kReduce);
    double whole = 0;
    for (size_t i : fed) whole += tasks_[i].work.records[folded];
    const double seconds = e_.cost_.Cpu(drained);
    for (size_t i : fed) {
      tasks_[i].drain_seconds =
          whole > 0 ? seconds * tasks_[i].work.records[folded] / whole
                    : seconds / static_cast<double>(fed.size());
    }
  }

  void RunMapTask(size_t i, int place, int lane,
                  api::HashCombineCollector* lane_hasher) {
    TaskPlan& t = tasks_[i];
    if (fault_ != nullptr) {
      t.status = fault_->Check("m3r.map", std::to_string(i));
      if (!t.status.ok()) return;
    }
    // The task's counted work: its split, plus what it did inside the
    // shuffle (emits and emit-time flushes, taken off the strand's tally
    // when it ends).
    t.work = sim::CpuWork{};
    t.drain_seconds = 0;
    const api::InputSplit* base_split = nullptr;
    JobConf tconf = api::SpecializeConfForSplit(conf_, *t.split, &base_split);
    const bool immutable =
        e_.options_.respect_immutable && MapOutputImmutable(tconf);
    kvstore::KVSeqPtr pairs;
    t.status = ReadSplit(t, tconf, *base_split, place, &pairs);
    if (!t.status.ok()) return;
    t.work.Add(sim::CpuLayer::kMap, pairs->size(), 0);

    api::CountersReporter reporter(&result_.counters);
    if (lane_hasher != nullptr) {
      // Map-side hash aggregation: the lane's persistent table folds values
      // at emit time across every task this strand runs, and only the folded
      // pairs reach the shuffle (drained once, at end of the map phase).
      // Everything it forwards is freshly deserialized, so the shuffle
      // aliases it regardless of the mapper's immutability, and it comes
      // with its bytes, so remote pairs go to the wire as they are.
      const uint64_t folded = lane_hasher->collected();
      t.status = FeedMapper(tconf, *pairs, *lane_hasher, reporter);
      t.work.Add(sim::CpuLayer::kReduce, lane_hasher->collected() - folded, 0);
    } else if (num_reduce_ > 0 && tconf.HasCombiner()) {
      auto partitioner = api::MakePartitioner(tconf);
      bool combiner_immutable =
          e_.options_.respect_immutable && CombineOutputImmutable(tconf);
      CombiningShuffleCollector collector(tconf, &*shuffle_, partitioner.get(),
                                          place, lane, num_reduce_, immutable,
                                          combiner_immutable, &reporter);
      t.status = FeedMapper(tconf, *pairs, collector, reporter);
      if (t.status.ok()) t.status = collector.Flush();
      t.work += collector.work();
    } else if (num_reduce_ > 0) {
      auto partitioner = api::MakePartitioner(tconf);
      ShuffleCollector collector(&*shuffle_, partitioner.get(), place, lane,
                                 num_reduce_, immutable, &reporter);
      t.status = FeedMapper(tconf, *pairs, collector, reporter);
    } else {
      // Map-only: mapper output goes straight to the job output.
      t.status = WriteTaskOutput(
          static_cast<int>(i), place, immutable,
          api::counters::kMapOutputRecords, reporter, &t.work, &t.output_bytes,
          [&](api::OutputCollector& out) {
            return FeedMapper(tconf, *pairs, out, reporter);
          });
    }
    if (!t.status.ok()) return;
    if (num_reduce_ > 0) t.work += shuffle_->TakeStrandWork(place, lane);
    task_done_[i] = 1;
    membership_.Heartbeat(place);
    const size_t done = ++map_tasks_done_;
    SyncMemgov();
    ReportMapProgress(done);
  }

  /// The split's pair sequence: the cached block, or a RecordReader pass
  /// (counted as the task's parse work, and the cached block's refill
  /// cost) whose result is cached at `place` for the next job.
  Status ReadSplit(TaskPlan& t, const JobConf& tconf,
                   const api::InputSplit& base_split, int place,
                   kvstore::KVSeqPtr* pairs) {
    if (t.empty_hit) {
      *pairs = std::make_shared<const KVSeq>();
      return Status::OK();
    }
    if (t.cache_hit) {
      std::optional<Cache::Block> block =
          e_.cache_.GetBlock(*t.cache_path, t.block_name);
      if (!block) {
        // Evicted between planning and execution (e.g. a sibling block of the
        // path failed its check); retriable at job granularity.
        return Status::DataLoss("cache block evicted: " + *t.cache_path + "#" +
                                t.block_name);
      }
      // Verify the fill-time fingerprint before serving; an unrepairable
      // mismatch evicts the path and fails the job with DataLoss, and the
      // retried job re-reads the DFS.
      M3R_RETURN_NOT_OK(e_.cache_.CheckBlock(*t.cache_path, *block));
      *pairs = block->pairs;
      return Status::OK();
    }
    M3R_ASSIGN_OR_RETURN(KVSeq seq, ReadAllPairs(tconf, base_split, *e_.fs_));
    auto owned = std::make_shared<const KVSeq>(std::move(seq));
    t.work.Add(sim::CpuLayer::kMap, 0, t.input_bytes);
    if (e_.options_.enable_cache && t.cache_path) {
      // Droppable: the split is DFS-backed, so a budget-constrained admission
      // may bypass the cache and the next job re-reads it.
      M3R_RETURN_NOT_OK(e_.cache_.PutBlock(*t.cache_path, t.block_name, place,
                                           *owned, t.input_bytes,
                                           e_.cost_.Cpu(t.work),
                                           /*droppable=*/true));
    }
    *pairs = std::move(owned);
    return Status::OK();
  }

  /// Recovers from the places that died this round (DESIGN.md §14.3):
  /// re-homes their shuffle partitions, heals evicted inputs, and re-plans
  /// their tasks onto survivors for the next round. Returns false when the
  /// crash lost data that cannot be rebuilt (recovery_abandoned_ says what).
  bool Recover(const std::vector<int>& newly_dead,
               const std::vector<int>& alive) {
    // Re-home the dead places' partitions and lanes onto the survivors
    // (partition-map version bump; orphan lanes delivered at the barrier).
    if (num_reduce_ > 0) {
      ShuffleExchange::RecoveryStats rs =
          shuffle_->DropDeadPlaces(newly_dead, alive);
      pmap_version_ = shuffle_->map_version();
      M3R_LOG(Warn) << "recovery: re-homed " << rs.rehomed_partitions
                    << " partitions, dropped " << rs.dropped_local_pairs
                    << " pre-barrier pairs, " << rs.dropped_lanes
                    << " dead lanes and " << rs.dropped_runs
                    << " shipped runs (map v" << pmap_version_ << ")";
    }
    // The heal's reads are charged to the recovery span.
    recovery_heal_seconds_ += HealInputs();
    // Cache-only inputs must still be complete after the heal; anything short
    // is unrecoverable in-flight (same contract as job entry).
    std::vector<std::string> missing;
    const std::string lost = IncompleteInput(&missing);
    if (!lost.empty()) {
      recovery_abandoned_ =
          Status::DataLoss("place crash lost cache-only input '" + lost +
                           "': " + missing.front());
      return false;
    }

    // Classify the dead places' tasks: never-started work is reassigned as
    // normal work; completed work whose output died with the place (shuffle
    // state, or a cache-only output) is replayed. Completed map-only tasks
    // with materialized output keep their DFS files — never re-committed.
    int64_t replayed_round = 0;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      TaskPlan& t = tasks_[i];
      if (!std::binary_search(newly_dead.begin(), newly_dead.end(), t.place)) {
        continue;
      }
      if (task_done_[i]) {
        if (num_reduce_ == 0 && !temporary_) continue;
        task_done_[i] = 0;
        t.replayed = true;
        t.status = Status::OK();
        t.output_bytes = 0;
        map_tasks_done_.fetch_sub(1, std::memory_order_relaxed);
        ++replayed_round;
      }
      // Revalidate the cache plan: the dead place took its blocks with it. A
      // DFS-backed split degrades to a re-read; a cache-only block that the
      // heal could not restore is lost for good.
      if (t.cache_hit && !e_.cache_.GetBlock(*t.cache_path, t.block_name)) {
        if (t.whole_file_hit || t.empty_hit ||
            !e_.base_fs_->Exists(*t.cache_path)) {
          recovery_abandoned_ = Status::DataLoss(
              "place crash lost cached input block " + *t.cache_path + "#" +
              t.block_name);
          return false;
        }
        t.cache_hit = false;
        t.l2_hit = false;
        t.block_name = Cache::BlockNameForSplit(*t.split);
      }
      PlaceOnSurvivor(i, alive);
    }

    metrics::Add(&result_, metric::kRecoveredMapTasks, replayed_round);
    // This crash is handled; clear the verdict so a later crash (next round,
    // or mid-reduce) is judged on its own.
    {
      std::lock_guard<std::mutex> lock(crash_mu_);
      crash_status_ = Status::OK();
    }
    // Next round runs exactly the not-done work (all of it re-planned onto
    // survivors — a finished round leaves nothing pending anywhere else).
    for (auto& v : tasks_of_place_) v.clear();
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (!task_done_[i]) {
        tasks_of_place_[static_cast<size_t>(tasks_[i].place)].push_back(i);
      }
    }
    ReportMapProgress(map_tasks_done_.load());
    return true;
  }

  /// Re-plans task `i` onto a survivor: partitioned splits follow the
  /// re-homed partition map (stability within the new epoch); everything
  /// else keeps its planning preference, deterministically re-hashed onto
  /// the alive list when the preferred place died.
  void PlaceOnSurvivor(size_t i, const std::vector<int>& alive) {
    TaskPlan& t = tasks_[i];
    auto locations = t.split->GetLocations();
    int pref;
    if (const auto* placed = FindPlacedSplit(*t.split)) {
      const int part = placed->GetPlacedPartition();
      pref = num_reduce_ > 0 && part >= 0 && part < num_reduce_
                 ? shuffle_->PlaceOfPartition(part)
                 : PlacedHome(part);
    } else if (t.cache_hit) {
      pref = e_.cache_.GetBlock(*t.cache_path, t.block_name)->info.place;
    } else if (!locations.empty()) {
      pref = locations[0] % num_places_;
    } else {
      pref = alive[i % alive.size()];
    }
    if (membership_.IsSuspectOrDead(pref)) {
      pref = alive[static_cast<size_t>(pref) % alive.size()];
    }
    t.place = pref;
    t.local_read = LocalRead(t, locations, num_places_);
  }

  void ChargePartialMapPhase() {
    const double start = clock_.now();
    sim::SlotTimeline part_tl(spec_, start);
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (!task_done_[i]) continue;
      part_tl.ScheduleOnNode(tasks_[i].place, start, MapTaskSeconds(tasks_[i]));
    }
    clock_.AdvanceTo(phase::kMapPhasePartial, part_tl.Makespan());
    if (recovery_heal_seconds_ > 0) {
      clock_.Charge(phase::kRecovery, recovery_heal_seconds_);
    }
  }

  void ChargeMapPhase() {
    metrics::Add(&result_, metric::kHdfsReadBytes, 0);
    metrics::Add(&result_, metric::kHdfsWriteBytes, 0);
    const double start = clock_.now();
    sim::SlotTimeline map_tl(spec_, start);
    int64_t replayed_tasks = 0;
    for (const TaskPlan& t : tasks_) {
      if (t.replayed) {
        ++replayed_tasks;  // charged to the recovery span below
      } else {
        map_tl.ScheduleOnNode(t.place, start, MapTaskSeconds(t));
      }
      if (!t.cache_hit) {
        metrics::Add(&result_, metric::kHdfsReadBytes,
                     static_cast<int64_t>(t.input_bytes));
      }
    }
    const double map_end = map_tl.Makespan();
    clock_.AdvanceTo(phase::kMapPhase, map_end);

    // Replayed work runs after the crash-free portion of the phase, on the
    // survivors, plus the checkpoint heal reads — the price of surviving the
    // crash instead of re-running the whole job. (The dead places' wasted
    // pre-crash work is parallel loss and does not extend the makespan.)
    double recovery_span = recovery_heal_seconds_;
    if (replayed_tasks > 0) {
      sim::SlotTimeline rec_tl(spec_, map_end);
      for (const TaskPlan& t : tasks_) {
        if (!t.replayed) continue;
        rec_tl.ScheduleOnNode(t.place, map_end, MapTaskSeconds(t));
      }
      recovery_span += rec_tl.Makespan() - map_end;
    }
    if (recovery_span > 0) {
      const int64_t ms =
          static_cast<int64_t>(std::llround(recovery_span * 1000.0));
      clock_.Charge(phase::kRecovery, recovery_span);
      metrics::Set(&result_, metric::kRecoveryMillis, ms);
    }
    if (num_reduce_ == 0) {
      for (const TaskPlan& t : tasks_) {
        metrics::Add(&result_, metric::kHdfsWriteBytes,
                     static_cast<int64_t>(t.output_bytes));
      }
    }
  }

  /// Shuffle delivery after the Team barrier (§5.1; DESIGN.md §15).
  Status Shuffle() {
    // Dead places deliver nothing; their inbound (orphan) lanes are
    // delivered by round-robin survivors inside DeliverTo.
    e_.places_.FinishForAll([this](int place) {
      if (membership_.IsDead(place)) return;
      shuffle_->DeliverTo(place, workers_ > 1 ? &e_.places_.pool() : nullptr,
                          workers_);
    });
    // A dropped lane means a partition silently lost pairs: never reduce over
    // partial shuffle data.
    M3R_RETURN_NOT_OK(shuffle_->status());

    double shuffle_span = 0;
    // The map phase and its recovery, which pre-barrier wire time overlaps.
    const double map_phase_span = clock_.now() - spec_.m3r_job_overhead_s;
    for (int p = 0; p < num_places_; ++p) {
      if (membership_.IsDead(p)) continue;  // no lanes, no decode
      uint64_t send = 0;
      // Orphan lanes this survivor delivers for dead destinations count as
      // its received traffic (it pulls them over the wire to decode).
      uint64_t recv = shuffle_->OrphanWireBytesFor(p);
      // Runs shipped before the barrier overlap the map phase's compute; only
      // the residual barrier drain — plus whatever pre-barrier wire time
      // exceeded the map phase itself — extends the post-barrier span. With
      // flush_bytes 0 BarrierWireBytes equals WireBytes and the pre-barrier
      // terms are zero: the paper's barrier charge.
      uint64_t pre_send = 0, pre_recv = 0;
      for (int q = 0; q < num_places_; ++q) {
        if (q == p) continue;
        uint64_t s_total = shuffle_->WireBytes(p, q);
        uint64_t s_resid = shuffle_->BarrierWireBytes(p, q);
        uint64_t r_total = shuffle_->WireBytes(q, p);
        uint64_t r_resid = shuffle_->BarrierWireBytes(q, p);
        send += s_resid;
        recv += r_resid;
        pre_send += s_total - s_resid;
        pre_recv += r_total - r_resid;
      }
      // Deserialization at a place is spread across its worker threads (the
      // paper's "8 worker threads to exploit the 8 cores"): pack each
      // stream's counted decode work onto the place's simulated slots in
      // stream order; the longest slot is the place's decode time. A single
      // fat stream cannot be split.
      std::vector<double> slot_busy(
          static_cast<size_t>(std::max(spec_.slots_per_node, 1)), 0.0);
      for (const sim::CpuWork& stream : shuffle_->DecodeWork(p)) {
        *std::min_element(slot_busy.begin(), slot_busy.end()) +=
            e_.cost_.Cpu(stream);
      }
      double decode = *std::max_element(slot_busy.begin(), slot_busy.end());
      double comm = e_.cost_.NetTransfer(send) + e_.cost_.NetTransfer(recv) +
                    decode;
      if (pre_send > 0 || pre_recv > 0) {
        double pre =
            e_.cost_.NetTransfer(pre_send) + e_.cost_.NetTransfer(pre_recv);
        comm += std::max(0.0, pre - map_phase_span);
      }
      shuffle_span = std::max(shuffle_span, comm);
    }

    const ShuffleExchange::Stats s = shuffle_->ComputeStats();
    auto set = [this](metric::Id id, uint64_t value) {
      metrics::Set(&result_, id, static_cast<int64_t>(value));
    };
    set(metric::kShuffleLocalPairs, s.local_pairs);
    set(metric::kShuffleRemotePairs, s.remote_pairs);
    set(metric::kShuffleWireBytes, s.total_wire_bytes);
    set(metric::kDedupObjects, s.deduped_objects);
    set(metric::kDedupSavedBytes, s.dedup_saved_bytes);
    set(metric::kAliasedPairs, s.aliased_pairs);
    // Combine-path clones are already on the counter; fold both sources.
    set(metric::kClonedPairs,
        s.cloned_pairs + static_cast<uint64_t>(result_.counters.Get(
                             api::counters::kM3rGroup,
                             api::counters::kClonedPairs)));
    set(metric::kShuffleRunsShipped, s.runs_shipped);
    set(metric::kShuffleOverflowSpills, s.overflow_spills);
    set(metric::kShufflePoolPeakBytes, s.peak_resident_run_bytes);
    set(metric::kShuffleMaxPartitionRunBytes, s.max_partition_run_bytes);
    // The Team barrier, then the residual drain.
    clock_.Charge(phase::kShuffle, spec_.m3r_barrier_s);
    clock_.Charge(phase::kShuffle, shuffle_span);
    // First reducer starts the moment the barrier drain lands — the
    // pipeline's headline latency win.
    metrics::Set(&result_, metric::kTimeToFirstReduceMs,
                 static_cast<int64_t>(std::llround(clock_.now() * 1000.0)));
    return Status::OK();
  }

  Status Reduce() {
    reduce_results_.resize(static_cast<size_t>(num_reduce_));
    reduce_immutable_ =
        e_.options_.respect_immutable && ReduceOutputImmutable(conf_);
    e_.places_.FinishForAll([this](int place) {
      if (membership_.IsDead(place)) return;
      if (!PlaceAlive(place)) return;
      std::vector<int> mine;
      for (int p = 0; p < num_reduce_; ++p) {
        if (shuffle_->PlaceOfPartition(p) == place) mine.push_back(p);
      }
      if (mine.size() <= 1 || workers_ <= 1) {
        for (int p : mine) RunReduceTask(p, place);
      } else {
        e_.places_.pool().ParallelFor(
            mine.size(), [&](size_t k) { RunReduceTask(mine[k], place); },
            workers_);
      }
    });
    if (Status crash = CrashStatus(); !crash.ok()) {
      // A crash past the map barrier is past the recovery horizon: the dead
      // place's reduce state (sorted runs, partial writers) is not
      // reconstructible from retained shuffle lanes. Tear the place down so
      // its cache blocks don't serve stale data, then fall back to the
      // whole-job retriable failure — the resubmitted attempt heals its
      // inputs from the checkpoint. It reports the time up to the reduce.
      ConfirmAndTeardown();
      crash_charged_ = true;
      return crash;
    }
    if (cancelled_.load()) return Status::Cancelled("job cancelled");
    for (const ReduceResult& rr : reduce_results_) M3R_RETURN_NOT_OK(rr.status);

    const double start = clock_.now();
    sim::SlotTimeline red_tl(spec_, start);
    for (int p = 0; p < num_reduce_; ++p) {
      const ReduceResult& rr = reduce_results_[static_cast<size_t>(p)];
      double d = e_.cost_.Cpu(rr.work);
      if (!temporary_) d += e_.cost_.DfsWrite(rr.output_bytes);
      red_tl.ScheduleOnNode(shuffle_->PlaceOfPartition(p), start, d);
      metrics::Add(&result_, metric::kHdfsWriteBytes,
                   static_cast<int64_t>(rr.output_bytes));
    }
    clock_.AdvanceTo(phase::kReducePhase, red_tl.Makespan());
    metrics::Set(&result_, metric::kReduceTasks, num_reduce_);
    return Status::OK();
  }

  void RunReduceTask(int p, int place) {
    ReduceResult& rr = reduce_results_[static_cast<size_t>(p)];
    if (cancelled_.load(std::memory_order_relaxed)) return;
    if (e_.CancelRequested()) {
      cancelled_.store(true, std::memory_order_relaxed);
      return;
    }
    if (fault_ != nullptr) {
      rr.status = fault_->Check("m3r.reduce", std::to_string(p));
      if (!rr.status.ok()) return;
    }
    api::CountersReporter reporter(&result_.counters);

    // Sort + group (in-memory, same comparator semantics as Hadoop).
    const KVSeq& incoming = shuffle_->PartitionPairs(p);
    std::vector<api::KeyedPair> pairs;
    pairs.reserve(incoming.size());
    uint64_t key_bytes = 0;
    for (const auto& [k, v] : incoming) {
      api::KeyedPair kp;
      kp.key_bytes = serialize::SerializeToString(*k);
      key_bytes += kp.key_bytes.size();
      kp.key = k;
      kp.value = v;
      pairs.push_back(std::move(kp));
    }
    rr.work.Add(sim::CpuLayer::kEmit, pairs.size(), key_bytes);
    rr.sort.Add(sim::CpuLayer::kSort, pairs.size(), 0);
    api::SortOptions sort_options;
    if (workers_ > 1) {
      sort_options.executor = &e_.places_.pool();
      sort_options.max_workers = workers_;
    }
    api::SortPairs(conf_, &pairs, sort_options);
    rr.status = MergeShippedRuns(p, &pairs, &rr.work);
    if (!rr.status.ok()) return;
    reporter.IncrCounter(api::counters::kTaskGroup,
                         api::counters::kReduceInputRecords,
                         static_cast<int64_t>(pairs.size()));
    rr.work.Add(sim::CpuLayer::kReduce, pairs.size(), 0);
    rr.status = WriteTaskOutput(
        p, place, reduce_immutable_, api::counters::kReduceOutputRecords,
        reporter, &rr.work, &rr.output_bytes, [&](api::OutputCollector& out) {
          api::SortedPairsGroupSource groups(conf_, &pairs);
          bool imm_unused = false;
          return api::RunReduceTask(conf_, groups, out, reporter, &imm_unused);
        });
    if (!rr.status.ok()) return;
    membership_.Heartbeat(place);
  }

  /// The partition's remote pairs arrived as sorted runs; k-way merge them
  /// with the (sorted) local `pairs` instead of re-sorting the whole
  /// partition. Equal keys drain local-first, then in (source place, lane,
  /// flush seq) order — the order a barrier exchange's lane splice gives a
  /// stable sort.
  Status MergeShippedRuns(int p, std::vector<api::KeyedPair>* local,
                          sim::CpuWork* work) {
    std::vector<api::KeyedPair>& pairs = *local;
    std::vector<SortedRun> runs;
    M3R_RETURN_NOT_OK(shuffle_->CollectPartitionRuns(p, &runs));
    if (runs.empty()) return Status::OK();
    sortkit::RunMerger merger(shuffle_options_.run_comparator);
    size_t fed = 0;
    merger.AddRun(
        [&pairs, &fed](std::string_view* k, std::string_view* v) {
          if (fed >= pairs.size()) return false;
          *k = pairs[fed].key_bytes;
          *v = std::string_view();
          ++fed;
          return true;
        },
        /*ordinal=*/0);
    std::vector<serialize::DataInput> ins;
    ins.reserve(runs.size());
    uint64_t remote_records = 0;
    uint64_t remote_bytes = 0;
    for (const SortedRun& run : runs) {
      remote_records += run.records;
      remote_bytes += run.bytes.size();
      ins.emplace_back(std::string_view(run.bytes));
    }
    work->Add(sim::CpuLayer::kDecode, remote_records, remote_bytes);
    // Each run's record types are resolved once; every record is then built
    // straight from its span, one Writable per field.
    struct RunTypes {
      WritablePtr key;
      WritablePtr value;
    };
    std::unordered_map<uint64_t, RunTypes> types_of;
    types_of.reserve(runs.size());
    auto& registry = serialize::WritableRegistry::Instance();
    for (size_t i = 0; i < runs.size(); ++i) {
      serialize::DataInput* in = &ins[i];
      const uint64_t ord =
          RunOrdinal(runs[i].src_place, runs[i].worker_lane, runs[i].seq);
      types_of.emplace(ord, RunTypes{registry.Create(runs[i].key_type),
                                     registry.Create(runs[i].value_type)});
      merger.AddRun(
          [in](std::string_view* k, std::string_view* v) {
            if (in->AtEnd()) return false;
            *k = in->ReadStringView();
            *v = in->ReadStringView();
            return true;
          },
          ord);
    }
    std::vector<api::KeyedPair> merged;
    merged.reserve(pairs.size() + remote_records);
    std::string_view mk, mv;
    uint64_t ord = 0;
    size_t consumed = 0;
    while (merger.Next(&mk, &mv, &ord)) {
      if (ord == 0) {
        merged.push_back(std::move(pairs[consumed++]));
        continue;
      }
      const RunTypes& types = types_of.find(ord)->second;
      api::KeyedPair kp;
      kp.key_bytes.assign(mk.data(), mk.size());
      kp.key = types.key->NewInstance();
      serialize::DeserializeFromString(mk, kp.key.get());
      kp.value = types.value->NewInstance();
      serialize::DeserializeFromString(mv, kp.value.get());
      merged.push_back(std::move(kp));
    }
    pairs = std::move(merged);
    return Status::OK();
  }

  Status Commit() {
    if (e_.CancelRequested()) return Status::Cancelled("job cancelled");
    if (!temporary_) {
      api::FileOutputCommitter committer;
      M3R_RETURN_NOT_OK(committer.CommitJob(conf_, *e_.fs_));
    }
    // Commit the cache-only output's manifest: the file set a consumer is
    // entitled to. If a place crash later takes blocks with it, the consumer
    // compares against this record and fails loudly instead of silently
    // computing on the survivors (DESIGN.md §13).
    if (temporary_ && e_.options_.enable_cache) {
      e_.cache_.RecordManifest(path::Canonicalize(conf_.OutputPath()));
    }
    // Spill cache-only outputs to the DFS in the background: "tempout"
    // covers this job's temporary output, "all" sweeps every cache-only file
    // (named outputs, earlier jobs' outputs that predate the policy).
    if (checkpoint_ == CheckpointPolicy::kAll) {
      e_.ScheduleCheckpoint(e_.AllCacheOnlyFiles());
    } else if (checkpoint_ == CheckpointPolicy::kTempOut && temporary_) {
      e_.ScheduleCheckpoint(e_.cache_.FilesUnder(conf_.OutputPath()));
    }
    // Both paths end on one Team barrier. The partition sorts and the
    // checksums ran inside tasks on every place, so each is charged per slot.
    clock_.Charge(phase::kExitBarrier, spec_.m3r_barrier_s);
    sim::CpuWork sort;
    for (const ReduceResult& rr : reduce_results_) sort += rr.sort;
    if (const double charge = e_.cost_.Cpu(sort); charge > 0) {
      clock_.Charge(phase::kSort, e_.cost_.SpreadOverSlots(charge));
    }
    if (integrity_ != nullptr && integrity_->enabled()) {
      clock_.Charge(phase::kIntegrity,
                    e_.cost_.SpreadOverSlots(e_.cost_.Checksum(
                        static_cast<uint64_t>(
                            integrity_->counters->bytes_checksummed.load()))));
    }
    // Register the finished output for cross-job reuse: a later submission
    // with the same lineage signature short-circuits to these cached files.
    if (!lineage_sig_.empty() && e_.options_.enable_cache) {
      const std::string out = path::Canonicalize(conf_.OutputPath());
      std::vector<std::string> out_files = e_.cache_.FilesUnder(out);
      if (!out_files.empty()) {
        e_.cache_manager_->RegisterReuse(lineage_sig_, out, out_files);
      }
    }
    // Settle the budget before declaring success: the job is done, so its
    // pins come off and anything admitted above the cache's share is evicted
    // (spilling through the checkpoint path) — steady-state residency honors
    // the configured budget between jobs.
    pins_.ReleaseAll();
    if (e_.governor_.governed()) e_.cache_manager_->EvictToBudget();
    return Status::OK();
  }

  /// The one exit. A failure after the output was claimed removes whatever
  /// the job produced and pings the FAILED job-end notification — the
  /// contract JobClient's retry loop and external workflow managers rely on.
  /// Every exit that gets that far reports its crash, integrity and
  /// memory-governance tallies. A success, and a crash fallback that
  /// charged the work before the crash, report the clock; every other
  /// failure reports no simulated time.
  api::JobResult Finish(Status status) {
    if (!status.ok() && !output_claimed_) {
      // Rejected before the output was ours: nothing to undo, no ping.
      api::JobResult rejected;
      rejected.status = std::move(status);
      return rejected;
    }
    if (!status.ok()) {
      if (!temporary_) {
        api::FileOutputCommitter committer;
        committer.AbortJob(conf_, *e_.fs_);
        e_.fs_->Delete(conf_.OutputPath(), true);
      } else {
        e_.cache_.Delete(conf_.OutputPath());
      }
    }
    if (status.ok() || crash_charged_) clock_.Publish(&result_);
    if (fault_ != nullptr) {
      metrics::Set(&result_, metric::kInjectedFaults, fault_->InjectedCount());
    }
    // Runs post-join (no concurrent strand mutates the tallies), so no lock
    // is needed. The crash tallies were summed at each quiesce point; a zero
    // Add reports the ones that stayed 0.
    if (place_crashes_ > 0) {
      for (metric::Id id : {metric::kPlaceCrashes,
                            metric::kCacheEvictedByCrashBlocks,
                            metric::kRecoveredMapTasks}) {
        metrics::Add(&result_, id, 0);
      }
      metrics::Set(&result_, metric::kMembershipEpoch,
                   static_cast<int64_t>(membership_.epoch()));
      metrics::Set(&result_, metric::kPartitionMapVersion,
                   static_cast<int64_t>(pmap_version_));
    }
    metrics::SetIntegrity(&result_, integrity_.get());
    for (const auto& [id, value] : MemgovValues()) {
      metrics::Set(&result_, id, value);
    }
    result_.status = std::move(status);
    result_.wall_seconds = wall_.ElapsedSeconds();
    if (result_.ok()) e_.ReportProgress(1.0, &result_.counters);
    e_.NotifyJobEnd(conf_, result_);
    return std::move(result_);
  }

  /// Simulated seconds of one map task on its place: its counted CPU work,
  /// plus its input read (DFS on a miss; the L2
  /// tier's memory or network cost for a promoted split — the hierarchy the
  /// paper's in-memory thesis predicts) and its materialized output write.
  double MapTaskSeconds(const TaskPlan& t) const {
    double d = e_.cost_.Cpu(t.work) + t.drain_seconds;
    if (!t.cache_hit) {
      d += e_.cost_.DfsRead(t.input_bytes, t.local_read);
    } else if (t.l2_hit) {
      d += e_.cost_.L2Read(t.input_bytes, !t.l2_remote);
    }
    if (num_reduce_ == 0 && !temporary_) d += e_.cost_.DfsWrite(t.output_bytes);
    return d;
  }

  /// Runs `produce` into task `index`'s share of the job output at `place`:
  /// a RecordWriter on the task's temp path (unless the output is
  /// temporary), named outputs, and the cached copy of the task's output
  /// file — the key move that makes the next job's input land here again
  /// (§3.2.2.2). Adds the bytes written to the DFS to `*output_bytes` and
  /// the records and bytes produced to the task's `*work`, whose charge is
  /// the cached block's refill cost.
  Status WriteTaskOutput(
      int index, int place, bool immutable, const char* records_counter,
      api::Reporter& reporter, sim::CpuWork* work, uint64_t* output_bytes,
      const std::function<Status(api::OutputCollector&)>& produce) {
    dfs::FileSystem& fs = *e_.fs_;
    std::unique_ptr<api::RecordWriter> writer;
    if (!temporary_) {
      std::string temp_path =
          api::file_output::TempPath(conf_, index, /*attempt=*/0);
      M3R_ASSIGN_OR_RETURN(writer, output_format_->GetRecordWriter(
                                       conf_, fs, temp_path, place));
    }
    M3RNamedOutputSink named_sink(conf_, fs, &e_.cache_, index, place,
                                  temporary_);
    api::ScopedNamedOutputSink scoped(&named_sink);
    OutputSeqCollector collector(immutable, writer.get(), &reporter,
                                 records_counter);
    M3R_RETURN_NOT_OK(produce(collector));
    if (writer != nullptr) {
      M3R_RETURN_NOT_OK(writer->Close());
      *output_bytes = writer->BytesWritten();
      api::FileOutputCommitter committer;
      M3R_RETURN_NOT_OK(committer.CommitTask(conf_, fs, index, /*attempt=*/0));
    }
    uint64_t named_bytes = 0;
    M3R_RETURN_NOT_OK(named_sink.Finish(&named_bytes));
    *output_bytes += named_bytes;
    work->Add(sim::CpuLayer::kEmit, collector.records(),
              collector.bytes() + named_bytes);
    if (!e_.options_.enable_cache) return Status::OK();
    return e_.cache_.PutBlock(api::file_output::FinalPath(conf_, index), "0",
                              place, collector.TakeSeq(), collector.bytes(),
                              e_.cost_.Cpu(*work), /*droppable=*/!temporary_,
                              /*whole_file=*/true);
  }

  /// Restores cache-only input blocks that are gone (a fresh instance, a
  /// place crash, or a governor spill, which lands in the checkpoint layout
  /// even with checkpointing otherwise off): demoted files come back from
  /// the L2 tier first (a memory move, or one network hop), and the
  /// checkpoint fills whatever the tier no longer holds. Without the
  /// promote, a demoted file would trip IncompleteInput as a false DataLoss.
  /// Returns the simulated seconds of the heal's reads.
  double HealInputs() {
    if (checkpoint_ == CheckpointPolicy::kOff && !e_.governor_.governed()) {
      return 0;
    }
    double seconds = 0;
    uint64_t restored_bytes = 0;
    for (const std::string& in : conf_.InputPaths()) {
      uint64_t promoted_bytes = 0;
      e_.tiered_->PromoteUnder(path::Canonicalize(in), /*only_unbacked=*/true,
                               &promoted_bytes);
      seconds += e_.cost_.L2Read(promoted_bytes, /*local=*/false);
      Status st = e_.RestoreDirFromCheckpoint(in, /*only_missing=*/true,
                                              nullptr, &restored_bytes,
                                              integrity_.get());
      if (!st.ok()) {
        M3R_LOG(Warn) << "checkpoint heal of " << in
                      << " failed: " << st.ToString();
      }
    }
    return seconds + e_.cost_.DfsRead(restored_bytes, /*local=*/false);
  }

  /// Cache-only inputs must be complete: a committed temp directory's
  /// manifest says which files the producer published. Returns the first
  /// input that is short, with its missing files, or "" when all are whole.
  std::string IncompleteInput(std::vector<std::string>* missing) const {
    if (!e_.options_.enable_cache) return "";
    for (const std::string& in : conf_.InputPaths()) {
      *missing = e_.cache_.ManifestMissing(path::Canonicalize(in));
      if (!missing->empty()) return in;
    }
    return "";
  }

  /// The place a PlacedSplit's partition maps to outside any re-homing.
  int PlacedHome(int partition) const {
    return e_.options_.partition_stability
               ? StablePlaceOfPartition(partition, num_places_)
               : (partition + salt_) % num_places_;
  }

  MetricValues MemgovValues() const {
    const memgov::CacheManager& mgr = *e_.cache_manager_;
    const memgov::CacheManager::Counters now = mgr.counters();
    auto since = [](auto now_value, auto base) {
      return static_cast<int64_t>(now_value - base);
    };
    MetricValues values = {
        {metric::kCacheBytesResident,
         static_cast<int64_t>(mgr.ResidentBytes())},
        {metric::kCacheEvictions, since(now.evictions, mg0_.evictions)},
        {metric::kCacheEvictedBytes,
         since(now.evicted_bytes, mg0_.evicted_bytes)},
        {metric::kCacheSpilledEvictions,
         since(now.spilled_evictions, mg0_.spilled_evictions)},
        {metric::kCacheRejectedFills,
         since(now.rejected_fills, mg0_.rejected_fills)},
        {metric::kCacheForcedFills, since(now.forced_fills, mg0_.forced_fills)},
        {metric::kCacheAbortedEvictions,
         since(now.aborted_evictions, mg0_.aborted_evictions)},
        // Protocol-health gauges, not deltas: current leases (readers + open
        // fills) and evictions claimed but not yet published.
        {metric::kCacheLeasesActive, static_cast<int64_t>(mgr.LeasesActive())},
        {metric::kCacheEvictorInflight,
         static_cast<int64_t>(mgr.EvictorInflight())},
    };
    if (e_.governor_.governed()) {
      values.push_back({metric::kMemoryBudgetBytes,
                        static_cast<int64_t>(e_.governor_.budget())});
      values.push_back({metric::kMemoryPeakBytes,
                        static_cast<int64_t>(e_.governor_.PeakUsage())});
    }
    if (l2_on_) {
      const l2cache::L2Counters l2 = e_.tiered_->l2_counters();
      values.insert(
          values.end(),
          {{metric::kL2Hits, since(l2.hits, l20_.hits)},
           {metric::kL2Misses, since(l2.misses, l20_.misses)},
           {metric::kL2Demotions, since(l2.demotions, l20_.demotions)},
           {metric::kL2RemoteBytes,
            since(l2.remote_bytes, l20_.remote_bytes)},
           {metric::kL2RingHeals, since(l2.ring_heals, l20_.ring_heals)},
           {metric::kL2OverflowFills,
            since(l2.overflow_fills, l20_.overflow_fills)},
           {metric::kL2BytesResident,
            static_cast<int64_t>(e_.tiered_->L2ResidentBytes())}});
    }
    return values;
  }

  /// Mid-job: moves the live counter mirrors up to date (task strands call
  /// this concurrently); Finish writes the metrics.
  void SyncMemgov() {
    const MetricValues values = MemgovValues();
    std::lock_guard<std::mutex> lock(publish_mu_);
    for (const auto& [id, value] : values) {
      metrics::SetMirror(&result_.counters, id, value);
    }
  }

  /// Whole-place crash ("m3r.place" site or the scripted knob, keyed by place
  /// id): the place goes Suspect immediately — its strands stop taking work
  /// at the next task boundary — and the heavyweight teardown (cache
  /// eviction, reconcile, partition re-homing) runs exactly once per place,
  /// at the next quiesce point.
  void ReportCrash(int place, Status st) {
    if (!membership_.Suspect(place, st.ToString())) return;
    M3R_LOG(Warn) << "place " << place << " crashed: " << st.ToString();
    std::lock_guard<std::mutex> lock(crash_mu_);
    ++place_crashes_;
    if (crash_status_.ok()) crash_status_ = std::move(st);
  }

  bool PlaceAlive(int place) {
    if (membership_.IsSuspectOrDead(place)) return false;
    if (fault_ == nullptr) return true;
    Status st = fault_->Check("m3r.place", std::to_string(place));
    if (st.ok()) return true;
    ReportCrash(place, std::move(st));
    return false;
  }

  /// Scripted mid-map crash points: the per-place counter ticks once per task
  /// this place starts, so "P:N" kills it between its N-th and (N+1)-th task
  /// — deterministic mid-phase timing whatever the strand interleaving
  /// (exactly N tasks begin before the place dies).
  bool ScriptedCrash(int place) {
    if (crash_script_.empty()) return false;
    auto it = crash_script_.find(place);
    if (it == crash_script_.end()) return false;
    if (place_attempts_[static_cast<size_t>(place)].fetch_add(
            1, std::memory_order_relaxed) < it->second) {
      return false;
    }
    ReportCrash(place, Status::Unavailable("scripted crash of place " +
                                           std::to_string(place)));
    return true;
  }

  /// Quiesce-point teardown: confirm every suspect dead (one epoch bump per
  /// batch), evict exactly the dead places' cache blocks, and reconcile the
  /// cache manager once for the batch.
  std::vector<int> ConfirmAndTeardown() {
    std::vector<int> newly_dead = membership_.ConfirmDeaths();
    if (newly_dead.empty()) return newly_dead;
    int64_t evicted = 0;
    for (int d : newly_dead) {
      int64_t e = e_.cache_.store().EvictPlace(d);
      evicted += e;
      M3R_LOG(Warn) << "place " << d << " confirmed dead: evicted " << e
                    << " cache blocks";
    }
    // EvictPlace bypasses the manager's per-file notifications; re-derive the
    // entry table and resident bytes from what actually survived.
    e_.cache_manager_->Reconcile(
        [this](const std::string& p) { return e_.cache_.FileBytes(p); });
    // Ring heal (DESIGN.md §16): the dead places' L2 shards died with them —
    // hand their hash ranges to the survivors and drop the lost entries; the
    // data heals lazily from DFS/checkpoint on first touch.
    e_.tiered_->RingHeal(newly_dead);
    metrics::Add(&result_, metric::kPlaceCrashes,
                 static_cast<int64_t>(newly_dead.size()));
    metrics::Add(&result_, metric::kCacheEvictedByCrashBlocks, evicted);
    return newly_dead;
  }

  Status CrashStatus() {
    std::lock_guard<std::mutex> lock(crash_mu_);
    return crash_status_;
  }

  void ReportMapProgress(size_t done) {
    e_.ReportProgress(0.05 + 0.55 * static_cast<double>(done) /
                                 static_cast<double>(
                                     std::max<size_t>(tasks_.size(), 1)),
                      &result_.counters);
  }

  M3REngine& e_;
  const sim::ClusterSpec& spec_;
  const int num_places_;
  /// The submitted conf with distributed-cache contents installed.
  api::JobConf conf_;
  Stopwatch wall_;
  api::JobResult result_;

  // Set by Configure.
  int num_reduce_ = 0;
  int salt_ = 0;
  bool temporary_ = false;
  CheckpointPolicy checkpoint_ = CheckpointPolicy::kOff;
  int max_crashes_ = 0;
  std::map<int, int> crash_script_;
  bool reuse_exact_ = false;
  std::shared_ptr<FaultInjector> fault_;
  std::shared_ptr<IntegrityContext> integrity_;
  FaultGuard fault_guard_;
  PinGuard pins_;
  /// Engine-lifetime cache-manager counters at job start: deltas against
  /// them become this job's counters and metrics.
  memgov::CacheManager::Counters mg0_;
  l2cache::L2Counters l20_;
  bool l2_on_ = false;
  std::mutex publish_mu_;

  std::string lineage_sig_;
  std::shared_ptr<api::OutputFormat> output_format_;
  /// Output specs passed and the output is ours: a failure from here on
  /// removes what the job produced and pings the FAILED notification.
  bool output_claimed_ = false;

  // Place membership for this submission (DESIGN.md §14): suspicion is
  // raised mid-round from any strand; deaths are confirmed (and torn down
  // exactly once per place) only at quiesce points.
  MembershipService membership_;
  std::mutex crash_mu_;
  Status crash_status_;  // first *unrecovered* crash; cleared per recovery
  int64_t place_crashes_ = 0;
  uint64_t pmap_version_ = 1;

  // Set by Plan. The run comparator and the spill sink are declared before
  // the exchange (reverse destruction order): they must outlive it.
  std::vector<TaskPlan> tasks_;
  std::vector<std::vector<size_t>> tasks_of_place_;
  int workers_ = 1;
  ShuffleOptions shuffle_options_;
  serialize::RawComparatorPtr run_sort_cmp_;
  sortkit::RawCompareFn run_cmp_;
  std::optional<CheckpointRunSpillSink> run_spill_sink_;
  std::optional<ShuffleExchange> shuffle_;

  // Map phase.
  bool lane_hash_combine_ = false;
  /// Per-task completion, read at quiesce points (after the round's join)
  /// to tell lost-and-replayable work from never-started work. Each index
  /// is written by exactly one strand per round.
  std::vector<char> task_done_;
  std::atomic<size_t> map_tasks_done_{0};
  std::atomic<bool> map_aborted_{false};
  std::atomic<bool> cancelled_{false};
  /// Map tasks each place has started, for the scripted crash points.
  std::vector<std::atomic<int>> place_attempts_;
  std::mutex hash_mu_;
  Status hash_status_;
  double recovery_heal_seconds_ = 0;
  Status recovery_abandoned_;  // recovery gave up (lost data) mid-flight

  // The job's simulated clock (DESIGN.md §19), charged phase by phase.
  api::phases::Clock clock_;
  /// An unrecovered crash charged the work done before it, and the failure
  /// reports that time.
  bool crash_charged_ = false;

  // Reduce phase.
  std::vector<ReduceResult> reduce_results_;
  bool reduce_immutable_ = false;
  /// Sort-kernel CPU across every reduce task (including work stolen by
  /// pool strands), charged to the sort phase.
};

api::JobResult M3REngine::Submit(const api::JobConf& conf) {
  api::JobResult result = JobRun(this, conf).Run();
  if (result.status.code() == StatusCode::kCancelled) {
    // The job's shuffle exchange is gone and has returned its lane buffers
    // to the pool — but a cancelled job's decayed size hints describe work
    // that never finished, and would pin that memory until the next job.
    // Drop the retained buffers outright.
    buffer_pool_.Trim();
  }
  return result;
}

}  // namespace m3r::engine

#include "m3r/m3r_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
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
#include "api/multiple_io.h"
#include "api/output_format.h"
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
      api::SortPairs(conf_, &pairs);
      api::SortedPairsGroupSource groups(sort_cmp, &pairs);
      EmitCollector emit(this, p);
      M3R_RETURN_NOT_OK(api::RunCombine(conf_, groups, emit, *reporter_));
      pairs.clear();
    }
    return Status::OK();
  }

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
};

/// Routes mapper output into the shuffle.
class ShuffleCollector : public api::OutputCollector {
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

api::JobResult Fail(Status status) {
  api::JobResult r;
  r.status = std::move(status);
  return r;
}

/// Knobs folded into a numeric knob beside them. A job that still sets one
/// fails rather than have the setting silently ignored; only the former
/// default, which the replacement's default reproduces, is still accepted.
struct RemovedKey {
  const char* key;
  const char* former_default;
  const char* replacement;
};
constexpr RemovedKey kRemovedKeys[] = {
    {api::conf::kShufflePipeline, "on",
     "m3r.shuffle.flush.bytes (0 = barrier exchange)"},
    {"m3r.place.recovery", "replay",
     "m3r.place.recovery.max.crashes (0 = recovery off)"},
};

Status CheckRemovedKeys(const JobConf& conf) {
  for (const RemovedKey& removed : kRemovedKeys) {
    if (!conf.Contains(removed.key)) continue;
    const std::string value = conf.Get(removed.key, "");
    if (value == removed.former_default) continue;
    return Status::InvalidArgument(std::string(removed.key) + "=" + value +
                                   " is no longer supported; use " +
                                   removed.replacement);
  }
  return Status::OK();
}

}  // namespace

struct M3REngine::TaskPlan {
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
  double cpu_seconds = 0;
  uint64_t output_bytes = 0;  // map-only jobs
  /// Completed once at a place that later died, and re-run on a survivor:
  /// the re-execution is charged to time_breakdown["recovery"], not to the
  /// crash-free map phase.
  bool replayed = false;
};

namespace {

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
    x10rt::Channel ch(options_.dedup_mode);
    for (const auto& [k, v] : pairs) {
      ch.Send(k);
      ch.Send(v);
    }
    x10rt::Channel::Wire wire = ch.Finish();
    l2cache::BlockPayload p;
    p.block_name = block_name;
    p.place = place;
    p.bytes = bytes;
    p.whole_file = whole_file;
    p.crc = crc32c::Crc32c(wire.bytes);
    p.wire = std::move(wire.bytes);
    (void)tiered_->AcceptOverflow(path, base_fs_->Exists(path),
                                  std::move(p));
  });
  // Clients read cache-only outputs through fs_ (ListStatus union,
  // GetCacheRecordReader) without going through job submission, so the
  // FS must be able to restore what the background evictor spilled — from
  // the L2 tier first (a move back into L1), then from the checkpoint.
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
  cache_manager_.reset();  // joins the background evictor
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
          x10rt::Channel ch(mode);
          for (const auto& [k, v] : *block.pairs) {
            ch.Send(k);
            ch.Send(v);
          }
          x10rt::Channel::Wire wire = ch.Finish();
          // Header: home place, byte estimate, payload CRC32C, whole-file
          // flag. The stamp is unconditional (like the DFS's block
          // checksums) so a restore under any future integrity mode can
          // verify it.
          std::string content = std::to_string(block.info.place) + " " +
                                std::to_string(block.bytes) + " " +
                                std::to_string(crc32c::Crc32c(wire.bytes)) +
                                " " + (block.info.whole_file ? "1" : "0") +
                                "\n";
          content += wire.bytes;
          Status st = base->WriteFile(
              cdir + "/" + name + ".blk." + block.info.name, content);
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
  M3R_ASSIGN_OR_RETURN(std::vector<Cache::Block> blocks,
                       cache_.GetFileBlocks(path));
  if (blocks.empty()) return Status::NotFound("nothing cached: " + path);
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == 0 ? "/" : path.substr(0, slash);
  const std::string name = path.substr(slash + 1);
  const std::string cdir =
      std::string(kCheckpointRoot) + (dir == "/" ? "" : dir);
  for (const Cache::Block& block : blocks) {
    x10rt::Channel ch(options_.dedup_mode);
    for (const auto& [k, v] : *block.pairs) {
      ch.Send(k);
      ch.Send(v);
    }
    x10rt::Channel::Wire wire = ch.Finish();
    std::string content = std::to_string(block.info.place) + " " +
                          std::to_string(block.bytes) + " " +
                          std::to_string(crc32c::Crc32c(wire.bytes)) + " " +
                          (block.info.whole_file ? "1" : "0") + "\n";
    content += wire.bytes;
    M3R_RETURN_NOT_OK(base_fs_->WriteFile(
        cdir + "/" + name + ".blk." + block.info.name, content));
  }
  // The file's spill is complete; (re)commit the directory so heals see it.
  return base_fs_->WriteFile(cdir + "/_DONE", "1\n");
}

Status M3REngine::FreezePayloads(const std::string& path,
                                 std::vector<l2cache::BlockPayload>* out) {
  M3R_ASSIGN_OR_RETURN(std::vector<Cache::Block> blocks,
                       cache_.GetFileBlocks(path));
  if (blocks.empty()) return Status::NotFound("nothing cached: " + path);
  for (const Cache::Block& block : blocks) {
    x10rt::Channel ch(options_.dedup_mode);
    for (const auto& [k, v] : *block.pairs) {
      ch.Send(k);
      ch.Send(v);
    }
    x10rt::Channel::Wire wire = ch.Finish();
    l2cache::BlockPayload p;
    p.block_name = block.info.name;
    p.place = block.info.place;
    p.bytes = block.bytes;
    p.whole_file = block.info.whole_file;
    p.crc = crc32c::Crc32c(wire.bytes);
    p.wire = std::move(wire.bytes);
    out->push_back(std::move(p));
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
    std::vector<serialize::WritablePtr> objs = x10rt::Channel::Decode(p.wire);
    KVSeq seq;
    seq.reserve(objs.size() / 2);
    for (size_t i = 0; i + 1 < objs.size(); i += 2) {
      seq.emplace_back(objs[i], objs[i + 1]);
    }
    M3R_RETURN_NOT_OK(cache_.PutBlock(path, p.block_name, p.place,
                                      std::move(seq), p.bytes,
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
    std::string content = std::to_string(p.place) + " " +
                          std::to_string(p.bytes) + " " +
                          std::to_string(p.crc) + " " +
                          (p.whole_file ? "1" : "0") + "\n";
    content += p.wire;
    M3R_RETURN_NOT_OK(base_fs_->WriteFile(
        cdir + "/" + name + ".blk." + p.block_name, content));
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
    std::vector<serialize::WritablePtr> objs = x10rt::Channel::Decode(payload);
    KVSeq seq;
    seq.reserve(objs.size() / 2);
    for (size_t i = 0; i + 1 < objs.size(); i += 2) {
      seq.emplace_back(objs[i], objs[i + 1]);
    }
    M3R_RETURN_NOT_OK(cache_.PutBlock(target, block_name,
                                      static_cast<int>(place),
                                      std::move(seq), est,
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
    auto reader_or =
        api::MakeInputFormat(tconf)->GetRecordReader(*base_split, tconf,
                                                     *fs_);
    if (!reader_or.ok()) {
      statuses[i] = reader_or.status();
      return;
    }
    auto reader = reader_or.take();
    Stopwatch fill_sw;
    KVSeq seq;
    for (;;) {
      WritablePtr k = reader->CreateKey();
      WritablePtr v = reader->CreateValue();
      if (!reader->Next(*k, *v)) break;
      seq.emplace_back(std::move(k), std::move(v));
    }
    reader->Close();
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
    statuses[i] = cache_.PutBlock(*name, Cache::BlockNameForSplit(split),
                                  place, std::move(seq), split.GetLength(),
                                  fill_sw.ElapsedSeconds(),
                                  /*droppable=*/true);
    if (statuses[i].ok()) ++loaded;
  });
  for (auto& st : statuses) {
    if (!st.ok()) return st;
  }
  return loaded.load();
}

api::JobResult M3REngine::Submit(const api::JobConf& conf) {
  api::JobResult result = SubmitImpl(conf);
  if (result.status.code() == StatusCode::kCancelled) {
    // The shuffle exchange died with SubmitImpl's scope and returned its
    // lane buffers to the pool — but a cancelled job's decayed size hints
    // describe work that never finished, and would pin that memory until
    // the next job. Drop the retained buffers outright.
    buffer_pool_.Trim();
  }
  return result;
}

api::JobResult M3REngine::SubmitImpl(const api::JobConf& submitted_conf) {
  if (Status s = CheckRemovedKeys(submitted_conf); !s.ok()) return Fail(s);
  // Local copy: distributed-cache contents are installed into the
  // configuration tasks see. M3R localizes through its own FS view, so
  // cache-resident (temporary) side files work too; places are long-lived
  // so no per-job localization cost is charged (paper §5.3).
  api::JobConf conf = submitted_conf;
  if (conf.Contains(api::conf::kCacheFiles)) {
    auto localized = api::DistributedCache::Localize(conf, *fs_);
    if (!localized.ok()) return Fail(localized.status());
    api::DistributedCache::InstallIntoConf(*localized, &conf);
  }
  Stopwatch wall;
  const sim::ClusterSpec& spec = options_.cluster;
  const int num_places = places_.NumPlaces();
  const int num_reduce = conf.NumReduceTasks();
  api::JobResult result;
  int salt = ++job_counter_;

  // Temporary outputs only exist by virtue of the cache; with the cache
  // ablated, every output must be materialized (Hadoop behavior).
  const bool temporary =
      options_.enable_cache && Cache::IsTemporary(conf, conf.OutputPath());

  const std::string ckpt_policy =
      conf.Get(api::conf::kCacheCheckpoint, "off");
  if (ckpt_policy != "off" && ckpt_policy != "tempout" &&
      ckpt_policy != "all") {
    return Fail(Status::InvalidArgument(
        std::string("bad ") + api::conf::kCacheCheckpoint + ": " +
        ckpt_policy));
  }

  // --- Mid-job place-failure recovery (DESIGN.md §14) ---
  // A crash budget of 0 turns recovery off: any place crash fails the whole
  // job, the paper's behaviour.
  const int max_crashes = static_cast<int>(
      conf.GetInt(api::conf::kPlaceRecoveryMaxCrashes, 2));
  if (max_crashes < 0) {
    return Fail(Status::InvalidArgument(
        std::string("bad ") + api::conf::kPlaceRecoveryMaxCrashes));
  }
  const bool recovery_on = max_crashes > 0;
  // Scripted crash points "P:N[,P:N...]": place P dies when it is about to
  // start its (N+1)-th map task. Entries for places the job doesn't have
  // never trigger.
  std::map<int, int> crash_script;
  {
    const std::string script = conf.Get(api::conf::kPlaceCrashAt, "");
    size_t pos = 0;
    while (pos < script.size()) {
      size_t comma = script.find(',', pos);
      const std::string item = script.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      pos = comma == std::string::npos ? script.size() : comma + 1;
      if (item.empty()) continue;
      char* after_place = nullptr;
      long p = std::strtol(item.c_str(), &after_place, 10);
      char* after_ordinal = nullptr;
      long n = after_place != nullptr && *after_place == ':'
                   ? std::strtol(after_place + 1, &after_ordinal, 10)
                   : -1;
      if (after_place == item.c_str() || *after_place != ':' ||
          after_ordinal == after_place + 1 ||
          (after_ordinal != nullptr && *after_ordinal != '\0') || p < 0 ||
          n < 0) {
        return Fail(Status::InvalidArgument(
            std::string("bad ") + api::conf::kPlaceCrashAt + " entry: " +
            item));
      }
      crash_script[static_cast<int>(p)] = static_cast<int>(n);
    }
  }

  // --- Memory governance (DESIGN.md §11): re-read per submission so a job
  // sequence can tighten or lift the budget between jobs. ---
  governor_.SetBudget(static_cast<uint64_t>(std::max<int64_t>(
                          0, conf.GetInt(api::conf::kMemoryBudgetMb, 0)))
                      << 20);
  for (const auto& [key, value] : conf.raw()) {
    if (key.rfind(api::conf::kMemorySharePrefix, 0) == 0) {
      governor_.SetShare(
          key.substr(std::string_view(api::conf::kMemorySharePrefix).size()),
          conf.GetDouble(key, 1.0));
    }
  }
  memgov::EvictionPolicy cache_policy;
  {
    const std::string policy_name = conf.Get(api::conf::kCachePolicy, "lru");
    Status st = memgov::ParseEvictionPolicy(policy_name, &cache_policy);
    if (!st.ok()) return Fail(std::move(st));
  }
  cache_manager_->Configure(
      cache_policy, conf.GetDouble(api::conf::kMemoryHighWatermark, 0.90),
      conf.GetDouble(api::conf::kMemoryLowWatermark, 0.75));
  // Two-tier cache (DESIGN.md §16): every place donates m3r.cache.l2.share
  // of the budget to the tier, so ring-wide capacity is share * budget *
  // places — the aggregate-memory thesis: the cluster holds N times what
  // one place can. Re-rung per submission (a place dead last job is
  // healthy again on the next).
  {
    const double l2_share = conf.GetDouble(api::conf::kCacheL2Share, 0.0);
    if (l2_share < 0.0 || l2_share > 1.0) {
      return Fail(Status::InvalidArgument(
          std::string("bad ") + api::conf::kCacheL2Share + ": " +
          conf.Get(api::conf::kCacheL2Share, "")));
    }
    std::vector<int> ring_places(static_cast<size_t>(places_.NumPlaces()));
    for (size_t i = 0; i < ring_places.size(); ++i) {
      ring_places[i] = static_cast<int>(i);
    }
    tiered_->ConfigureL2(
        governor_.governed() && l2_share > 0.0, ring_places,
        conf.GetInt(api::conf::kCacheL2VNodes, 16),
        static_cast<uint64_t>(l2_share *
                              static_cast<double>(governor_.budget()) *
                              static_cast<double>(ring_places.size())));
  }
  const std::string reuse_mode = conf.Get(api::conf::kCacheReuse, "off");
  if (reuse_mode != "off" && reuse_mode != "exact") {
    return Fail(Status::InvalidArgument(
        std::string("bad ") + api::conf::kCacheReuse + ": " + reuse_mode));
  }
  governor_.ResetPeak();

  // Per-job fault injection (tests and resilience drills): faults at the
  // DFS sites fire through the base file system; the injector is cleared
  // when Submit leaves, whatever the exit path.
  std::shared_ptr<FaultInjector> fault = FaultInjector::FromConf(conf.raw());
  // End-to-end integrity (m3r.integrity.mode): installed on the base file
  // system (block checksums) and the cache (block fingerprints) for the
  // duration of the submission, and carried by the shuffle for its frames.
  auto integrity_or = IntegrityContext::FromConf(conf.raw(), fault);
  if (!integrity_or.ok()) return Fail(integrity_or.status());
  std::shared_ptr<IntegrityContext> integrity = integrity_or.take();
  struct FaultGuard {
    dfs::FileSystem* fs;
    Cache* cache;
    ~FaultGuard() {
      fs->SetFaultInjector(nullptr);
      fs->SetIntegrity(nullptr);
      cache->SetIntegrity(nullptr);
    }
  } fault_guard{base_fs_.get(), &cache_};
  base_fs_->SetFaultInjector(fault);
  base_fs_->SetIntegrity(integrity);
  cache_.SetIntegrity(integrity);

  // Pin the job's input and output subtrees for the duration of the
  // submission: the background evictor must never spill the data a running
  // job is mapping over or publishing (pins also shield the reuse registry
  // entries rooted under them).
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
  } pins{cache_manager_.get(), {}};
  for (const std::string& in : conf.InputPaths()) {
    pins.Add(path::Canonicalize(in));
  }
  if (!conf.OutputPath().empty()) {
    pins.Add(path::Canonicalize(conf.OutputPath()));
  }

  // Memory-governance counter baseline: deltas against the engine-lifetime
  // cache-manager counters become this job's counters/metrics.
  const memgov::CacheManager::Counters mg0 = cache_manager_->counters();
  const l2cache::L2Counters l20 = tiered_->l2_counters();
  const bool l2_on = tiered_->L2Enabled();
  std::mutex memgov_sync_mu;
  auto sync_memgov = [&]() {
    const memgov::CacheManager::Counters now = cache_manager_->counters();
    const l2cache::L2Counters l2now = tiered_->l2_counters();
    std::lock_guard<std::mutex> lock(memgov_sync_mu);
    auto set_to = [&](const char* name, int64_t target) {
      result.counters.Increment(
          api::counters::kM3rGroup, name,
          target - result.counters.Get(api::counters::kM3rGroup, name));
    };
    set_to(api::counters::kCacheEvictions,
           static_cast<int64_t>(now.evictions - mg0.evictions));
    set_to(api::counters::kCacheEvictedBytes,
           static_cast<int64_t>(now.evicted_bytes - mg0.evicted_bytes));
    set_to(api::counters::kCacheRejectedFills,
           static_cast<int64_t>(now.rejected_fills - mg0.rejected_fills));
    set_to(api::counters::kCacheBytesResident,
           static_cast<int64_t>(cache_manager_->ResidentBytes()));
    set_to(api::counters::kCacheAbortedEvictions,
           static_cast<int64_t>(now.aborted_evictions - mg0.aborted_evictions));
    // Protocol-health gauges, not deltas: current leases (readers + open
    // fills) and evictions claimed but not yet published.
    set_to(api::counters::kCacheLeasesActive,
           static_cast<int64_t>(cache_manager_->LeasesActive()));
    set_to(api::counters::kCacheEvictorInflight,
           static_cast<int64_t>(cache_manager_->EvictorInflight()));
    if (l2_on) {
      set_to(api::counters::kL2Hits,
             static_cast<int64_t>(l2now.hits - l20.hits));
      set_to(api::counters::kL2Misses,
             static_cast<int64_t>(l2now.misses - l20.misses));
      set_to(api::counters::kL2Demotions,
             static_cast<int64_t>(l2now.demotions - l20.demotions));
      set_to(api::counters::kL2RemoteBytes,
             static_cast<int64_t>(l2now.remote_bytes - l20.remote_bytes));
      set_to(api::counters::kL2RingHeals,
             static_cast<int64_t>(l2now.ring_heals - l20.ring_heals));
    }
  };
  auto record_memgov = [&]() {
    sync_memgov();
    const memgov::CacheManager::Counters now = cache_manager_->counters();
    result.metrics["cache_bytes_resident"] =
        static_cast<int64_t>(cache_manager_->ResidentBytes());
    result.metrics["cache_evictions"] =
        static_cast<int64_t>(now.evictions - mg0.evictions);
    result.metrics["cache_evicted_bytes"] =
        static_cast<int64_t>(now.evicted_bytes - mg0.evicted_bytes);
    result.metrics["cache_spilled_evictions"] =
        static_cast<int64_t>(now.spilled_evictions - mg0.spilled_evictions);
    result.metrics["cache_rejected_fills"] =
        static_cast<int64_t>(now.rejected_fills - mg0.rejected_fills);
    result.metrics["cache_forced_fills"] =
        static_cast<int64_t>(now.forced_fills - mg0.forced_fills);
    result.metrics["cache_aborted_evictions"] =
        static_cast<int64_t>(now.aborted_evictions - mg0.aborted_evictions);
    result.metrics["cache_leases_active"] =
        static_cast<int64_t>(cache_manager_->LeasesActive());
    result.metrics["cache_evictor_inflight"] =
        static_cast<int64_t>(cache_manager_->EvictorInflight());
    if (governor_.governed()) {
      result.metrics["memory_budget_bytes"] =
          static_cast<int64_t>(governor_.budget());
      result.metrics["memory_peak_bytes"] =
          static_cast<int64_t>(governor_.PeakUsage());
    }
    if (l2_on) {
      const l2cache::L2Counters l2now = tiered_->l2_counters();
      result.metrics["l2_hits"] = static_cast<int64_t>(l2now.hits - l20.hits);
      result.metrics["l2_misses"] =
          static_cast<int64_t>(l2now.misses - l20.misses);
      result.metrics["l2_demotions"] =
          static_cast<int64_t>(l2now.demotions - l20.demotions);
      result.metrics["l2_remote_bytes"] =
          static_cast<int64_t>(l2now.remote_bytes - l20.remote_bytes);
      result.metrics["l2_ring_heals"] =
          static_cast<int64_t>(l2now.ring_heals - l20.ring_heals);
      result.metrics["l2_overflow_fills"] =
          static_cast<int64_t>(l2now.overflow_fills - l20.overflow_fills);
      result.metrics["l2_bytes_resident"] =
          static_cast<int64_t>(tiered_->L2ResidentBytes());
    }
  };

  // --- ReStore-style cross-job output reuse (m3r.cache.reuse=exact): a job
  // whose lineage signature — inputs (+ content versions), configuration
  // minus volatile keys, mapper/reducer/combiner identity — matches a
  // previously registered output short-circuits to that output, skipping
  // the map and reduce phases entirely. ---
  std::string lineage_sig;
  if (options_.enable_cache && reuse_mode == "exact") {
    lineage_sig = memgov::LineageSignature(
        conf, [this](const std::string& p) { return InputVersion(p); });
    const std::string out = path::Canonicalize(conf.OutputPath());
    if (auto src = cache_manager_->LookupReuse(lineage_sig)) {
      bool served = false;
      if (*src == out) {
        // Identical output path: the cached output is already in place.
        served = true;
      } else if (temporary && !fs_->Exists(out)) {
        // Same lineage under a new temporary name: clone the registered
        // output's cached blocks to the new path. Lease the source
        // directory for the whole clone so the background evictor cannot
        // claim one of its files between LookupReuse and the copy.
        memgov::CacheManager::ReadLease reuse_lease = cache_.LeaseRead(*src);
        served = true;
        for (const std::string& f : cache_.FilesUnder(*src)) {
          auto blocks_or = cache_.GetFileBlocks(f);
          if (!blocks_or.ok()) {
            served = false;
            break;
          }
          const std::string dst = out + f.substr(src->size());
          for (const auto& b : *blocks_or) {
            if (b.pairs == nullptr) continue;
            Status st = cache_.PutBlock(dst, b.info.name, b.info.place,
                                        *b.pairs, b.bytes,
                                        /*fill_seconds=*/0.0,
                                        /*droppable=*/false,
                                        b.info.whole_file);
            if (!st.ok()) {
              M3R_LOG(Warn) << "reuse clone of " << f
                            << " failed: " << st.ToString();
              served = false;
              break;
            }
          }
          if (!served) break;
        }
        if (!served) cache_.Delete(out);
      }
      if (served) {
        result.metrics["reused_from_cache"] = 1;
        result.counters.Increment(api::counters::kM3rGroup,
                                  api::counters::kReusedFromCache, 1);
        double t0 = spec.m3r_job_overhead_s;
        result.time_breakdown["job_overhead"] = t0;
        result.sim_seconds = t0;
        result.wall_seconds = wall.ElapsedSeconds();
        result.status = Status::OK();
        record_memgov();
        ReportProgress(1.0, &result.counters);
        NotifyJobEnd(conf, result);
        return result;
      }
    }
  }

  auto output_format = api::MakeOutputFormat(conf);
  if (!temporary) {
    Status st = output_format->CheckOutputSpecs(conf, *fs_);
    if (!st.ok()) return Fail(std::move(st));
    api::FileOutputCommitter committer;
    st = committer.SetupJob(conf, *fs_);
    if (!st.ok()) return Fail(std::move(st));
  } else {
    if (fs_->Exists(conf.OutputPath())) {
      return Fail(
          Status::AlreadyExists("output exists: " + conf.OutputPath()));
    }
    // Recovery: a fresh (restarted) instance finds the output already
    // spilled to the DFS — reload it into the cache and skip the job
    // instead of re-running it (replay from the last materialized output).
    if (ckpt_policy != "off") {
      int rfiles = 0;
      uint64_t rbytes = 0;
      Status st = RestoreDirFromCheckpoint(conf.OutputPath(),
                                           /*only_missing=*/false, &rfiles,
                                           &rbytes, integrity.get());
      if (!st.ok()) {
        M3R_LOG(Warn) << "checkpoint restore of " << conf.OutputPath()
                      << " failed, running the job: " << st.ToString();
        cache_.Delete(conf.OutputPath());
      } else if (rfiles > 0) {
        result.metrics["recovered_from_checkpoint"] = 1;
        result.metrics["recovered_files"] = rfiles;
        result.metrics["recovered_bytes"] = static_cast<int64_t>(rbytes);
        double t0 = spec.m3r_job_overhead_s;
        double restore = cost_.DfsRead(rbytes, /*local=*/false);
        result.time_breakdown["job_overhead"] = t0;
        result.time_breakdown["checkpoint_restore"] = restore;
        result.sim_seconds = t0 + restore;
        result.wall_seconds = wall.ElapsedSeconds();
        result.status = Status::OK();
        record_memgov();
        ReportProgress(1.0, &result.counters);
        NotifyJobEnd(conf, result);
        return result;
      }
    }
  }

  // Output spec validation passed and (for materialized outputs) the output
  // directory is ours: from here on a failure aborts and removes whatever
  // the job produced, then pings the FAILED job-end notification — the
  // contract JobClient's retry loop and external workflow managers rely on.
  auto record_integrity = [&]() {
    if (integrity == nullptr || !integrity->enabled()) return;
    result.metrics["integrity_detected"] =
        integrity->counters->detected.load();
    result.metrics["integrity_repaired"] =
        integrity->counters->repaired.load();
    result.metrics["integrity_bytes_checksummed"] =
        integrity->counters->bytes_checksummed.load();
  };
  // --- Place membership for this submission (DESIGN.md §14): one view per
  // job, fed by the m3r.place fault site and the scripted crash knob.
  // Suspicion is raised mid-round from any strand; deaths are confirmed
  // (and torn down exactly once per place) only at quiesce points. ---
  MembershipService membership(num_places);
  std::mutex crash_mu;
  Status crash_status;  // first *unrecovered* crash; cleared per recovery
  int64_t place_crashes = 0;
  int64_t crash_evicted_blocks = 0;
  int64_t recovered_map_tasks_total = 0;
  uint64_t pmap_version = 1;
  // Crash observability on every exit path. Runs post-join (no concurrent
  // strand mutates the tallies), so no lock is needed.
  auto record_crashes = [&]() {
    if (place_crashes == 0) return;
    result.metrics["place_crashes"] = place_crashes;
    result.metrics["cache_evicted_by_crash_blocks"] = crash_evicted_blocks;
    result.metrics["recovered_map_tasks"] = recovered_map_tasks_total;
    result.metrics["membership_epoch"] =
        static_cast<int64_t>(membership.epoch());
    result.metrics["partition_map_version"] =
        static_cast<int64_t>(pmap_version);
  };

  auto fail_job = [&](Status status) {
    if (!temporary) {
      api::FileOutputCommitter committer;
      committer.AbortJob(conf, *fs_);
      fs_->Delete(conf.OutputPath(), true);
    } else {
      cache_.Delete(conf.OutputPath());
    }
    if (fault != nullptr) {
      result.metrics["injected_faults"] = fault->InjectedCount();
    }
    record_crashes();
    record_integrity();
    record_memgov();
    result.status = std::move(status);
    result.wall_seconds = wall.ElapsedSeconds();
    NotifyJobEnd(conf, result);
    return result;
  };

  // Heal checkpointed temporary inputs whose cached blocks are gone (a
  // fresh instance, a place crash evicted part of a file — or the memory
  // governor spilled it, which lands in the same checkpoint layout even
  // with checkpointing otherwise off).
  if (ckpt_policy != "off" || governor_.governed()) {
    for (const std::string& in : conf.InputPaths()) {
      // Demoted cache-only inputs come back from the L2 tier first (a
      // memory move, no DFS read); the checkpoint fills whatever the tier
      // no longer holds. Without the promote, a demoted file would trip
      // the manifest-completeness check below as a false DataLoss.
      tiered_->PromoteUnder(path::Canonicalize(in), /*only_unbacked=*/true,
                            nullptr);
      Status st = RestoreDirFromCheckpoint(in, /*only_missing=*/true,
                                           nullptr, nullptr, integrity.get());
      if (!st.ok()) {
        M3R_LOG(Warn) << "checkpoint heal of " << in
                      << " failed: " << st.ToString();
      }
    }
  }

  // Cache-only inputs must be complete: a committed temp directory's
  // manifest says which files (and how many bytes) the producer published.
  // Anything still short after the heal above is unrecoverable — fail with
  // a retriable DataLoss rather than silently computing on the survivors.
  if (options_.enable_cache) {
    for (const std::string& in : conf.InputPaths()) {
      std::vector<std::string> missing =
          cache_.ManifestMissing(path::Canonicalize(in));
      if (!missing.empty()) {
        std::string what;
        for (const std::string& m : missing) {
          if (!what.empty()) what += ", ";
          what += m;
        }
        return fail_job(Status::DataLoss(
            "cache-only input '" + in + "' is incomplete: " + what));
      }
    }
  }

  // --- Plan splits: cache lookups and placement ---
  auto input_format = api::MakeInputFormat(conf);
  auto splits_or = input_format->GetSplits(conf, *fs_, spec.total_slots());
  if (!splits_or.ok()) return fail_job(splits_or.status());
  std::vector<api::InputSplitPtr> splits = splits_or.take();

  std::vector<TaskPlan> tasks(splits.size());
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Files this job pulled back from the L2 tier (path -> crossed places):
  // every split the promotion turned into a hit charges the tier's cost
  // instead of a DFS re-read.
  std::map<std::string, bool> l2_promoted;
  for (size_t i = 0; i < splits.size(); ++i) {
    TaskPlan& t = tasks[i];
    t.split = splits[i];
    t.cache_path = Cache::NameForSplit(*t.split);
    t.block_name = Cache::BlockNameForSplit(*t.split);
    t.input_bytes = t.split->GetLength();
    // L1 miss, L2 probe (DESIGN.md §16): promote the whole demoted file
    // back into the cache before deciding hit vs DFS re-read.
    if (options_.enable_cache && t.cache_path && tiered_->L2Enabled() &&
        l2_promoted.find(*t.cache_path) == l2_promoted.end() &&
        !cache_.GetBlock(*t.cache_path, t.block_name) &&
        tiered_->L2Contains(*t.cache_path)) {
      bool remote = false;
      if (tiered_->TryPromote(*t.cache_path, &remote, nullptr).ok()) {
        l2_promoted[*t.cache_path] = remote;
      }
    }
    if (options_.enable_cache && t.cache_path &&
        cache_.GetBlock(*t.cache_path, t.block_name)) {
      t.cache_hit = true;
      ++cache_hits;
    } else if (options_.enable_cache && t.cache_path) {
      // Geometry mismatch: serve from the cache anyway iff the whole file
      // is cached as a single block named "0". The block must carry the
      // fill-time whole_file stamp: an offset-0 *input* block left as the
      // sole survivor of a place crash or an admission bypass looks
      // identical by name, and treating it as the whole file would serve
      // the file's other splits as empty — silent record loss.
      auto info = cache_.store().GetInfo(*t.cache_path);
      if (info.ok() && info->blocks.size() == 1 &&
          info->blocks[0].name == "0" && info->blocks[0].whole_file) {
        // Unwrap MultipleInputs' tagged splits etc.: exactly one split of
        // the file (the one starting at offset 0) serves the block.
        const api::FileSplit* fsplit = FindFileSplit(*t.split);
        bool is_first = fsplit == nullptr || fsplit->Start() == 0;
        t.cache_hit = true;
        t.whole_file_hit = is_first;
        t.empty_hit = !is_first;
        t.block_name = "0";
        ++cache_hits;
      } else {
        ++cache_misses;
      }
    } else {
      ++cache_misses;
    }
    if (t.cache_hit && !t.empty_hit && t.cache_path) {
      auto promoted = l2_promoted.find(*t.cache_path);
      if (promoted != l2_promoted.end()) {
        t.l2_hit = true;
        t.l2_remote = promoted->second;
      }
    } else if (!t.cache_hit && tiered_->L2Enabled()) {
      tiered_->RecordL2Miss();  // fell through to the DFS
    }

    auto locations = t.split->GetLocations();
    if (const auto* placed = FindPlacedSplit(*t.split)) {
      // PlacedSplit overrides M3R's preference for local splits (§4.3).
      t.place = options_.partition_stability
                    ? StablePlaceOfPartition(placed->GetPlacedPartition(),
                                             num_places)
                    : (placed->GetPlacedPartition() + salt) % num_places;
    } else if (t.cache_hit) {
      t.place = cache_.GetBlock(*t.cache_path, t.block_name)->info.place;
    } else if (!locations.empty()) {
      t.place = locations[0] % num_places;
    } else {
      t.place = round_robin_++ % num_places;
    }
    t.local_read =
        t.cache_hit ||
        std::find_if(locations.begin(), locations.end(), [&](int n) {
          return n % num_places == t.place;
        }) != locations.end();
  }
  result.metrics["map_tasks"] = static_cast<int64_t>(tasks.size());
  result.metrics["cache_hit_splits"] = cache_hits;
  result.metrics["cache_miss_splits"] = cache_misses;
  // Mirror the split-level outcome into the cache manager so its counters
  // (the policy-comparison view) agree with the job counters.
  for (int64_t i = 0; i < cache_hits; ++i) cache_manager_->RecordHit();
  for (int64_t i = 0; i < cache_misses; ++i) cache_manager_->RecordMiss();
  result.counters.Increment(api::counters::kM3rGroup,
                            api::counters::kCacheHits, cache_hits);
  result.counters.Increment(api::counters::kM3rGroup,
                            api::counters::kCacheMisses, cache_misses);

  // Group tasks by place.
  std::vector<std::vector<size_t>> tasks_of_place(
      static_cast<size_t>(num_places));
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks_of_place[static_cast<size_t>(tasks[i].place)].push_back(i);
  }

  // Intra-place worker strands (the paper's "8 worker threads to exploit
  // the 8 cores"): a per-job override, else the engine option, else
  // hardware threads spread across the places.
  int workers = static_cast<int>(
      conf.GetInt(api::conf::kPlaceWorkers, options_.workers_per_place));
  if (workers <= 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    workers = std::max(1, hw / std::max(num_places, 1));
  }
  result.metrics["place_workers"] = workers;

  const int shuffle_partitions = std::max(num_reduce, 1);
  ShuffleOptions shuffle_options;
  shuffle_options.num_partitions = shuffle_partitions;
  shuffle_options.dedup_mode = options_.dedup_mode;
  shuffle_options.partition_stability = options_.partition_stability;
  shuffle_options.instability_salt = salt;
  shuffle_options.workers_per_place = workers;
  shuffle_options.fault = fault;
  shuffle_options.integrity = integrity;
  shuffle_options.buffer_pool = &buffer_pool_;

  // Declared before the exchange (reverse destruction order): the run
  // comparator and spill sink must outlive it.
  serialize::RawComparatorPtr run_sort_cmp;
  sortkit::RawCompareFn run_cmp;
  CheckpointRunSpillSink run_spill_sink(
      base_fs_.get(),
      std::string(kCheckpointRoot) + "/_shuffle/job" + std::to_string(salt));
  if (num_reduce > 0) {
    // Streaming shuffle (DESIGN.md §15): a flush threshold of 0 ships every
    // lane whole at the barrier, the paper's barrier exchange.
    shuffle_options.flush_bytes = static_cast<size_t>(
        std::max<int64_t>(0, conf.GetInt(api::conf::kShuffleFlushBytes,
                                         256 * 1024)));
    const int64_t budget_mb =
        conf.GetInt(api::conf::kShufflePartitionBudgetMb, 0);
    if (budget_mb > 0) {
      shuffle_options.partition_budget_bytes =
          static_cast<size_t>(budget_mb) << 20;
      shuffle_options.spill_sink = &run_spill_sink;
    }
    // Runs must sort exactly like the reduce-side SortPairs; the raw-byte
    // default keeps the prefix-cached kernel, anything else routes through
    // the job's comparator.
    run_sort_cmp = api::SortComparator(conf);
    if (std::string_view(run_sort_cmp->Name()) !=
        serialize::BytesComparator::kName) {
      run_cmp = [&run_sort_cmp](std::string_view a, std::string_view b) {
        return run_sort_cmp->Compare(a, b);
      };
      shuffle_options.run_comparator = &run_cmp;
    }
    shuffle_options.resident_gauge = &shuffle_run_bytes_;
  }
  ShuffleExchange shuffle(num_places, shuffle_options);

  // --- Map phase (places run in parallel; each place fans its tasks out
  // over `workers` strands of the shared executor) ---
  sync_memgov();
  ReportProgress(0.05, &result.counters);
  std::atomic<size_t> map_tasks_done{0};
  std::atomic<bool> map_aborted{false};
  std::atomic<bool> cancelled{false};
  // Whole-place crash ("m3r.place" site or the scripted knob, keyed by
  // place id): the place goes Suspect immediately — its strands stop
  // taking work at the next task boundary — and the heavyweight teardown
  // (cache eviction, reconcile, partition re-homing) runs exactly once per
  // place, at the next quiesce point.
  auto report_crash = [&](int place, Status st) {
    if (!membership.Suspect(place, st.ToString())) return;
    M3R_LOG(Warn) << "place " << place << " crashed: " << st.ToString();
    std::lock_guard<std::mutex> lock(crash_mu);
    ++place_crashes;
    if (crash_status.ok()) crash_status = std::move(st);
  };
  auto place_alive = [&](int place) {
    if (membership.IsSuspectOrDead(place)) return false;
    if (fault == nullptr) return true;
    Status st = fault->Check("m3r.place", std::to_string(place));
    if (st.ok()) return true;
    report_crash(place, std::move(st));
    return false;
  };
  // Scripted mid-map crash points: the per-place counter ticks once per
  // task this place starts, so "P:N" kills it between its N-th and
  // (N+1)-th task — deterministic mid-phase timing whatever the strand
  // interleaving (exactly N tasks begin before the place dies).
  std::vector<std::atomic<int>> place_attempts(
      static_cast<size_t>(num_places));
  auto scripted_crash_check = [&](int place) {
    if (crash_script.empty()) return false;
    auto it = crash_script.find(place);
    if (it == crash_script.end()) return false;
    if (place_attempts[static_cast<size_t>(place)].fetch_add(
            1, std::memory_order_relaxed) < it->second) {
      return false;
    }
    report_crash(place,
                 Status::Unavailable("scripted crash of place " +
                                     std::to_string(place)));
    return true;
  };
  // Quiesce-point teardown: confirm every suspect dead (one epoch bump per
  // batch), evict exactly the dead places' cache blocks, and reconcile the
  // cache manager once for the batch.
  auto confirm_and_teardown = [&]() {
    std::vector<int> newly_dead = membership.ConfirmDeaths();
    if (newly_dead.empty()) return newly_dead;
    int64_t evicted = 0;
    for (int d : newly_dead) {
      int64_t e = cache_.store().EvictPlace(d);
      evicted += e;
      M3R_LOG(Warn) << "place " << d << " confirmed dead: evicted " << e
                    << " cache blocks";
    }
    // EvictPlace bypasses the manager's per-file notifications; re-derive
    // the entry table and resident bytes from what actually survived.
    cache_manager_->Reconcile(
        [this](const std::string& p) { return cache_.FileBytes(p); });
    // Ring heal (DESIGN.md §16): the dead places' L2 shards died with
    // them — hand their hash ranges to the survivors and drop the lost
    // entries; the data heals lazily from DFS/checkpoint on first touch.
    tiered_->RingHeal(newly_dead);
    crash_evicted_blocks += evicted;
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kPlaceCrashes,
                              static_cast<int64_t>(newly_dead.size()));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kCacheEvictedByCrashBlocks,
                              evicted);
    return newly_dead;
  };
  // Map-side hash aggregation (decided at job scope: combiner, map-output
  // types, and grouping comparator are job-level settings, so per-split
  // conf specialization cannot change eligibility). The collector is
  // lane-persistent — see run_strand below.
  const bool lane_hash_combine =
      num_reduce > 0 && conf.GetBool(api::conf::kMapHashCombine, false) &&
      api::HashCombineCollector::Eligible(conf);
  std::mutex hash_mu;
  Status hash_status;
  // Per-task completion, read at quiesce points (after the round's join)
  // to tell lost-and-replayable work from never-started work. Each index is
  // written by exactly one strand per round.
  std::vector<char> task_done(tasks.size(), 0);
  auto run_map_task = [&](size_t i, int place, int lane,
                          api::HashCombineCollector* lane_hasher) {
      TaskPlan& t = tasks[i];
      if (fault != nullptr) {
        t.status = fault->Check("m3r.map", std::to_string(i));
        if (!t.status.ok()) return;
      }
      CpuStopwatch sw;
      const api::InputSplit* base_split = nullptr;
      JobConf tconf = api::SpecializeConfForSplit(conf, *t.split,
                                                  &base_split);
      bool immutable =
          options_.respect_immutable && MapOutputImmutable(tconf);

      // 1. Obtain the split's pair sequence (cache or RecordReader).
      kvstore::KVSeqPtr pairs;
      if (t.empty_hit) {
        pairs = std::make_shared<const KVSeq>();
      } else if (t.cache_hit) {
        std::optional<Cache::Block> block =
            cache_.GetBlock(*t.cache_path, t.block_name);
        if (!block) {
          // Evicted between planning and execution (e.g. a sibling block
          // of the path failed its check); retriable at job granularity.
          t.status = Status::DataLoss("cache block evicted: " +
                                      *t.cache_path + "#" + t.block_name);
          return;
        }
        // Verify the fill-time fingerprint before serving; an
        // unrepairable mismatch evicts the path and fails the job with
        // DataLoss, and the retried job re-reads the DFS.
        t.status = cache_.CheckBlock(*t.cache_path, *block);
        if (!t.status.ok()) return;
        pairs = block->pairs;
      } else {
        Stopwatch fill_sw;
        auto reader_or = api::MakeInputFormat(tconf)->GetRecordReader(
            *base_split, tconf, *fs_);
        if (!reader_or.ok()) {
          t.status = reader_or.status();
          return;
        }
        auto reader = reader_or.take();
        KVSeq seq;
        for (;;) {
          WritablePtr k = reader->CreateKey();
          WritablePtr v = reader->CreateValue();
          if (!reader->Next(*k, *v)) break;
          seq.emplace_back(std::move(k), std::move(v));
        }
        reader->Close();
        auto owned = std::make_shared<const KVSeq>(std::move(seq));
        if (options_.enable_cache && t.cache_path) {
          // Droppable: the split is DFS-backed, so a budget-constrained
          // admission may bypass the cache and the next job re-reads it.
          t.status = cache_.PutBlock(*t.cache_path, t.block_name, place,
                                     *owned, t.input_bytes,
                                     fill_sw.ElapsedSeconds(),
                                     /*droppable=*/true);
          if (!t.status.ok()) return;
        }
        pairs = owned;
      }

      // 2. Run the mapper.
      api::CountersReporter reporter(&result.counters);
      if (lane_hasher != nullptr) {
        // Map-side hash aggregation: the lane's persistent table folds
        // values at emit time across every task this strand runs, and only
        // the folded pairs reach the shuffle (drained once, at end of the
        // map phase). Everything it forwards is freshly deserialized, so
        // the shuffle aliases it regardless of the mapper's immutability.
        t.status = FeedMapper(tconf, *pairs, *lane_hasher, reporter);
      } else if (num_reduce > 0 && tconf.HasCombiner()) {
        auto partitioner = api::MakePartitioner(tconf);
        bool combiner_immutable =
            options_.respect_immutable && CombineOutputImmutable(tconf);
        CombiningShuffleCollector collector(tconf, &shuffle,
                                            partitioner.get(), place, lane,
                                            num_reduce, immutable,
                                            combiner_immutable, &reporter);
        t.status = FeedMapper(tconf, *pairs, collector, reporter);
        if (t.status.ok()) t.status = collector.Flush();
      } else if (num_reduce > 0) {
        auto partitioner = api::MakePartitioner(tconf);
        ShuffleCollector collector(&shuffle, partitioner.get(), place, lane,
                                   num_reduce, immutable, &reporter);
        t.status = FeedMapper(tconf, *pairs, collector, reporter);
      } else {
        // Map-only: mapper output goes straight to the job output.
        std::unique_ptr<api::RecordWriter> writer;
        if (!temporary) {
          std::string temp_path = api::file_output::TempPath(
              conf, static_cast<int>(i), /*attempt=*/0);
          auto writer_or =
              output_format->GetRecordWriter(conf, *fs_, temp_path, place);
          if (!writer_or.ok()) {
            t.status = writer_or.status();
            return;
          }
          writer = writer_or.take();
        }
        M3RNamedOutputSink named_sink(conf, *fs_, &cache_,
                                      static_cast<int>(i), place, temporary);
        api::ScopedNamedOutputSink scoped(&named_sink);
        OutputSeqCollector collector(immutable, writer.get(), &reporter,
                                     api::counters::kMapOutputRecords);
        t.status = FeedMapper(tconf, *pairs, collector, reporter);
        if (!t.status.ok()) return;
        if (writer != nullptr) {
          t.status = writer->Close();
          if (!t.status.ok()) return;
          t.output_bytes = writer->BytesWritten();
          api::FileOutputCommitter committer;
          t.status = committer.CommitTask(conf, *fs_, static_cast<int>(i),
                                          /*attempt=*/0);
          if (!t.status.ok()) return;
        }
        uint64_t named_bytes = 0;
        t.status = named_sink.Finish(&named_bytes);
        if (!t.status.ok()) return;
        t.output_bytes += named_bytes;
        if (options_.enable_cache) {
          std::string out_file = api::file_output::FinalPath(
              conf, static_cast<int>(i));
          OutputSeqCollector* c = &collector;
          t.status = cache_.PutBlock(out_file, "0", place, c->TakeSeq(),
                                     c->bytes(), sw.ElapsedSeconds(),
                                     /*droppable=*/!temporary,
                                     /*whole_file=*/true);
          if (!t.status.ok()) return;
        }
      }
      t.cpu_seconds = sw.ElapsedSeconds();
      task_done[i] = 1;
      membership.Heartbeat(place);
      size_t done = ++map_tasks_done;
      sync_memgov();
      ReportProgress(0.05 + 0.55 * static_cast<double>(done) /
                                static_cast<double>(std::max<size_t>(
                                    tasks.size(), 1)),
                     &result.counters);
  };
  const double t0 = spec.m3r_job_overhead_s;
  int crashes_handled = 0;
  double recovery_heal_seconds = 0;
  Status recovery_abandoned;  // recovery gave up (lost data) mid-flight
  for (;;) {
    places_.FinishForAll([&](int place) {
      if (membership.IsSuspectOrDead(place)) return;
      if (!place_alive(place)) {
        if (!recovery_on) map_aborted.store(true);
        return;
      }
      const std::vector<size_t>& mine =
          tasks_of_place[static_cast<size_t>(place)];
      if (mine.empty()) return;
      // Strand s runs tasks j with j % strands == s and owns serialization
      // lane s, so each remote stream has exactly one writer and wire bytes
      // stay deterministic for a fixed worker count.
      const int strands =
          static_cast<int>(std::min<size_t>(mine.size(),
                                            static_cast<size_t>(workers)));
      auto run_strand = [&](size_t s) {
        // Lane-persistent hash aggregation (the in-node combiner): one table
        // lives across every map task this strand runs, so a key repeated in
        // different splits of the place still collapses to one wire record —
        // scope no per-task (or per-spill) combiner can reach. Each strand
        // owns its lane's serialization stream, so the table drains into a
        // single-writer lane and wire bytes stay deterministic. A replay
        // round gets fresh tables, so a recovered job may carry more than
        // one partial aggregate per key — the combiner contract (run 0+
        // times over any subset) already promises that is legal.
        // The reporter is declared first: the sink posts its record count
        // to it on destruction.
        std::unique_ptr<api::CountersReporter> lane_reporter;
        std::shared_ptr<api::Partitioner> lane_partitioner;
        std::unique_ptr<ShuffleCollector> lane_sink;
        std::unique_ptr<api::HashCombineCollector> lane_hasher;
        if (lane_hash_combine) {
          lane_partitioner = api::MakePartitioner(conf);
          lane_reporter =
              std::make_unique<api::CountersReporter>(&result.counters);
          lane_sink = std::make_unique<ShuffleCollector>(
              &shuffle, lane_partitioner.get(), place, static_cast<int>(s),
              num_reduce, /*immutable=*/true, lane_reporter.get());
          lane_hasher = std::make_unique<api::HashCombineCollector>(
              conf, lane_sink.get(), lane_reporter.get(),
              &hash_combine_bytes_);
        }
        for (size_t j = s; j < mine.size();
             j += static_cast<size_t>(strands)) {
          if (map_aborted.load(std::memory_order_relaxed)) return;
          if (CancelRequested()) {
            cancelled.store(true, std::memory_order_relaxed);
            map_aborted.store(true);
            return;
          }
          if (membership.IsSuspectOrDead(place)) return;
          if (scripted_crash_check(place)) {
            if (!recovery_on) map_aborted.store(true);
            return;
          }
          run_map_task(mine[j], place, static_cast<int>(s),
                       lane_hasher.get());
          if (!tasks[mine[j]].status.ok()) map_aborted.store(true);
        }
        // Survivors MUST drain their tables even when another place died
        // this round: their buffered pairs feed lanes that will be
        // delivered. A suspect place's drain would be discarded at quiesce
        // anyway; skip it.
        if (lane_hasher != nullptr &&
            !map_aborted.load(std::memory_order_relaxed) &&
            !membership.IsSuspectOrDead(place)) {
          Status st = lane_hasher->Flush();
          if (!st.ok()) {
            map_aborted.store(true);
            std::lock_guard<std::mutex> lock(hash_mu);
            if (hash_status.ok()) hash_status = std::move(st);
          }
        }
      };
      if (strands <= 1) {
        run_strand(0);
      } else {
        places_.pool().ParallelFor(static_cast<size_t>(strands), run_strand);
      }
    });

    // --- Quiesce: the round's strands are all joined. Confirm deaths,
    // tear down once per dead place, and either recover (bounded replay,
    // DESIGN.md §14) or break to the failure paths below. ---
    std::vector<int> newly_dead = confirm_and_teardown();
    if (newly_dead.empty()) break;  // crash-free round: the phase is done
    crashes_handled += static_cast<int>(newly_dead.size());
    std::vector<int> alive = membership.AlivePlaces();
    sync_memgov();
    if (!recovery_on || crashes_handled > max_crashes || alive.empty() ||
        map_aborted.load() || cancelled.load()) {
      // Recovery off, budget exhausted, nobody left, or the job is failing
      // for its own reasons — fall back to the whole-job retriable failure.
      break;
    }

    // Re-home the dead places' partitions and lanes onto the survivors
    // (partition-map version bump; orphan lanes delivered at the barrier).
    if (num_reduce > 0) {
      ShuffleExchange::RecoveryStats rs =
          shuffle.DropDeadPlaces(newly_dead, alive);
      pmap_version = shuffle.map_version();
      M3R_LOG(Warn) << "recovery: re-homed " << rs.rehomed_partitions
                    << " partitions, dropped " << rs.dropped_local_pairs
                    << " pre-barrier pairs, " << rs.dropped_lanes
                    << " dead lanes and " << rs.dropped_runs
                    << " shipped runs (map v" << pmap_version << ")";
    }

    // Heal evicted inputs from the checkpoint (the PR 7 lease/heal path);
    // the DFS reads are charged to the recovery span.
    if (ckpt_policy != "off" || governor_.governed()) {
      int healed_files = 0;
      uint64_t healed_bytes = 0;
      for (const std::string& in : conf.InputPaths()) {
        // Surviving L2 shards heal first: a promotion is a memory move
        // (or one network hop), charged well below the checkpoint's DFS
        // re-read that covers whatever the dead shards took down.
        uint64_t promoted_bytes = 0;
        tiered_->PromoteUnder(path::Canonicalize(in), /*only_unbacked=*/true,
                              &promoted_bytes);
        if (promoted_bytes > 0) {
          recovery_heal_seconds +=
              cost_.L2Read(promoted_bytes, /*local=*/false);
        }
        Status st = RestoreDirFromCheckpoint(in, /*only_missing=*/true,
                                             &healed_files, &healed_bytes,
                                             integrity.get());
        if (!st.ok()) {
          M3R_LOG(Warn) << "recovery heal of " << in
                        << " failed: " << st.ToString();
        }
      }
      if (healed_bytes > 0) {
        recovery_heal_seconds += cost_.DfsRead(healed_bytes, false);
      }
    }
    // Cache-only inputs must still be complete after the heal; anything
    // short is unrecoverable in-flight (same contract as job entry).
    if (options_.enable_cache) {
      for (const std::string& in : conf.InputPaths()) {
        std::vector<std::string> missing =
            cache_.ManifestMissing(path::Canonicalize(in));
        if (!missing.empty()) {
          recovery_abandoned = Status::DataLoss(
              "place crash lost cache-only input '" + in + "': " +
              missing.front());
          break;
        }
      }
    }

    // Classify the dead places' tasks: never-started work is reassigned as
    // normal work; completed work whose output died with the place (shuffle
    // state, or a cache-only output) is replayed. Completed map-only tasks
    // with materialized output keep their DFS files — never re-committed.
    int64_t replayed_round = 0;
    for (size_t i = 0; i < tasks.size() && recovery_abandoned.ok(); ++i) {
      TaskPlan& t = tasks[i];
      if (!std::binary_search(newly_dead.begin(), newly_dead.end(),
                              t.place)) {
        continue;
      }
      if (task_done[i]) {
        if (num_reduce == 0 && !temporary) continue;
        task_done[i] = 0;
        t.replayed = true;
        t.status = Status::OK();
        t.output_bytes = 0;
        map_tasks_done.fetch_sub(1, std::memory_order_relaxed);
        ++replayed_round;
      }
      // Revalidate the cache plan: the dead place took its blocks with it.
      // A DFS-backed split degrades to a re-read; a cache-only block that
      // the heal could not restore is lost for good.
      if (t.cache_hit && !cache_.GetBlock(*t.cache_path, t.block_name)) {
        if (t.whole_file_hit || t.empty_hit ||
            !base_fs_->Exists(*t.cache_path)) {
          recovery_abandoned = Status::DataLoss(
              "place crash lost cached input block " + *t.cache_path + "#" +
              t.block_name);
          break;
        }
        t.cache_hit = false;
        t.l2_hit = false;
        t.block_name = Cache::BlockNameForSplit(*t.split);
      }
      // Re-plan onto a survivor: partitioned splits follow the re-homed
      // partition map (stability within the new epoch); everything else
      // keeps its planning preference, deterministically re-hashed onto
      // the alive list when the preferred place died.
      auto locations = t.split->GetLocations();
      int pref;
      if (const auto* placed = FindPlacedSplit(*t.split)) {
        const int part = placed->GetPlacedPartition();
        pref = num_reduce > 0 && part >= 0 && part < shuffle_partitions
                   ? shuffle.PlaceOfPartition(part)
                   : (options_.partition_stability
                          ? StablePlaceOfPartition(part, num_places)
                          : (part + salt) % num_places);
      } else if (t.cache_hit) {
        pref = cache_.GetBlock(*t.cache_path, t.block_name)->info.place;
      } else if (!locations.empty()) {
        pref = locations[0] % num_places;
      } else {
        pref = alive[i % alive.size()];
      }
      if (membership.IsSuspectOrDead(pref)) {
        pref = alive[static_cast<size_t>(pref) % alive.size()];
      }
      t.place = pref;
      t.local_read =
          t.cache_hit ||
          std::find_if(locations.begin(), locations.end(), [&](int n) {
            return n % num_places == t.place;
          }) != locations.end();
    }
    if (!recovery_abandoned.ok()) break;

    recovered_map_tasks_total += replayed_round;
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kRecoveredMapTasks,
                              replayed_round);
    // This crash is handled; clear the verdict so a later crash (next
    // round, or mid-reduce) is judged on its own.
    {
      std::lock_guard<std::mutex> lock(crash_mu);
      crash_status = Status::OK();
    }
    // Next round runs exactly the not-done work (all of it re-planned onto
    // survivors — a finished round leaves nothing pending anywhere else).
    for (auto& v : tasks_of_place) v.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!task_done[i]) {
        tasks_of_place[static_cast<size_t>(tasks[i].place)].push_back(i);
      }
    }
    ReportProgress(0.05 + 0.55 * static_cast<double>(map_tasks_done.load()) /
                              static_cast<double>(std::max<size_t>(
                                  tasks.size(), 1)),
                   &result.counters);
  }

  Status map_crash;
  {
    std::lock_guard<std::mutex> lock(crash_mu);
    map_crash = crash_status;
  }
  if (!map_crash.ok()) {
    // Unrecovered crash (recovery off, horizon passed, or data loss): the
    // whole-job retriable failure, charging the work that did complete so
    // the failed attempt has an honest simulated cost.
    sim::SlotTimeline part_tl(spec, t0);
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!task_done[i]) continue;
      const TaskPlan& t = tasks[i];
      double d = t.cpu_seconds * spec.data_scale;
      if (!t.cache_hit) d += cost_.DfsRead(t.input_bytes, t.local_read);
      else if (t.l2_hit) d += cost_.L2Read(t.input_bytes, !t.l2_remote);
      if (num_reduce == 0 && !temporary) d += cost_.DfsWrite(t.output_bytes);
      part_tl.ScheduleOnNode(t.place, t0, d);
    }
    result.time_breakdown["map_phase_partial"] = part_tl.Makespan() - t0;
    result.sim_seconds = part_tl.Makespan() + recovery_heal_seconds;
    return fail_job(recovery_abandoned.ok() ? std::move(map_crash)
                                            : std::move(recovery_abandoned));
  }
  if (cancelled.load()) return fail_job(Status::Cancelled("job cancelled"));
  for (const TaskPlan& t : tasks) {
    if (!t.status.ok()) return fail_job(t.status);
  }
  {
    std::lock_guard<std::mutex> lock(hash_mu);
    if (!hash_status.ok()) return fail_job(hash_status);
  }

  // --- Simulated map phase time ---
  result.metrics["hdfs_read_bytes"] = 0;
  result.metrics["hdfs_write_bytes"] = 0;
  sim::SlotTimeline map_tl(spec, t0);
  int64_t replayed_tasks = 0;
  for (const TaskPlan& t : tasks) {
    double d = t.cpu_seconds * spec.data_scale;
    if (!t.cache_hit) d += cost_.DfsRead(t.input_bytes, t.local_read);
    // L2-promoted splits pay the tier's memory/network cost, not a DFS
    // re-read — the hierarchy the paper's in-memory thesis predicts.
    else if (t.l2_hit) d += cost_.L2Read(t.input_bytes, !t.l2_remote);
    if (num_reduce == 0 && !temporary) d += cost_.DfsWrite(t.output_bytes);
    if (t.replayed) {
      ++replayed_tasks;  // charged to the recovery span below
    } else {
      map_tl.ScheduleOnNode(t.place, t0, d);
    }
    if (!t.cache_hit) {
      result.metrics["hdfs_read_bytes"] += static_cast<int64_t>(
          t.input_bytes);
      result.counters.Increment(api::counters::kFsGroup,
                                api::counters::kHdfsBytesRead,
                                static_cast<int64_t>(t.input_bytes));
    }
  }
  double map_end = tasks.empty() ? t0 : map_tl.Makespan();
  result.time_breakdown["map_phase"] = map_end - t0;

  // Replayed work runs after the crash-free portion of the phase, on the
  // survivors, plus the checkpoint heal reads — the price of surviving the
  // crash instead of re-running the whole job. (The dead places' wasted
  // pre-crash work is parallel loss and does not extend the makespan.)
  double recovery_span = recovery_heal_seconds;
  if (replayed_tasks > 0) {
    sim::SlotTimeline rec_tl(spec, map_end);
    for (const TaskPlan& t : tasks) {
      if (!t.replayed) continue;
      double d = t.cpu_seconds * spec.data_scale;
      if (!t.cache_hit) d += cost_.DfsRead(t.input_bytes, t.local_read);
      else if (t.l2_hit) d += cost_.L2Read(t.input_bytes, !t.l2_remote);
      if (num_reduce == 0 && !temporary) d += cost_.DfsWrite(t.output_bytes);
      rec_tl.ScheduleOnNode(t.place, map_end, d);
    }
    recovery_span += rec_tl.Makespan() - map_end;
  }
  if (recovery_span > 0) {
    const int64_t ms = static_cast<int64_t>(
        std::llround(recovery_span * 1000.0));
    result.time_breakdown["recovery"] = recovery_span;
    result.metrics["recovery_millis"] = ms;
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kRecoveryMillis, ms);
  }
  const double phase_end = map_end + recovery_span;

  double total;
  if (num_reduce == 0) {
    total = phase_end + spec.m3r_barrier_s;
    for (const TaskPlan& t : tasks) {
      result.metrics["hdfs_write_bytes"] +=
          static_cast<int64_t>(t.output_bytes);
    }
  } else {
    // --- Shuffle delivery (after the Team barrier, §5.1) ---
    // Dead places deliver nothing; their inbound (orphan) lanes are
    // delivered by round-robin survivors inside DeliverTo.
    places_.FinishForAll([&](int place) {
      if (membership.IsDead(place)) return;
      shuffle.DeliverTo(place, workers > 1 ? &places_.pool() : nullptr,
                        workers);
    });
    // A dropped lane means a partition silently lost pairs: never reduce
    // over partial shuffle data.
    if (!shuffle.status().ok()) return fail_job(shuffle.status());

    double shuffle_span = 0;
    const double map_phase_span = phase_end - t0;
    for (int p = 0; p < num_places; ++p) {
      if (membership.IsDead(p)) continue;  // no lanes, no decode
      uint64_t send = 0;
      // Orphan lanes this survivor delivers for dead destinations count as
      // its received traffic (it pulls them over the wire to decode).
      uint64_t recv = shuffle.OrphanWireBytesFor(p);
      // Runs shipped before the barrier overlap the map phase's compute;
      // only the residual barrier drain — plus whatever pre-barrier wire
      // time exceeded the map phase itself — extends the post-barrier
      // span. With flush_bytes 0 BarrierWireBytes equals WireBytes and the
      // pre-barrier terms are zero: the paper's barrier charge.
      uint64_t pre_send = 0, pre_recv = 0;
      for (int q = 0; q < num_places; ++q) {
        if (q != p) {
          uint64_t s_total = shuffle.WireBytes(p, q);
          uint64_t s_resid = shuffle.BarrierWireBytes(p, q);
          uint64_t r_total = shuffle.WireBytes(q, p);
          uint64_t r_resid = shuffle.BarrierWireBytes(q, p);
          send += s_resid;
          recv += r_resid;
          pre_send += s_total - s_resid;
          pre_recv += r_total - r_resid;
        }
      }
      // Deserialization at a place is spread across its worker threads
      // (the paper's "8 worker threads to exploit the 8 cores"): pack the
      // measured per-stream decode CPU seconds onto the place's simulated
      // slots in deterministic stream order; the longest slot is the
      // place's decode time. A single fat stream cannot be split, which
      // the old "divide the total by the slot count" shortcut got wrong.
      std::vector<double> slot_busy(
          static_cast<size_t>(std::max(spec.slots_per_node, 1)), 0.0);
      for (double stream_seconds : shuffle.DecodeSeconds(p)) {
        *std::min_element(slot_busy.begin(), slot_busy.end()) +=
            stream_seconds * spec.data_scale;
      }
      double decode = *std::max_element(slot_busy.begin(), slot_busy.end());
      double comm = cost_.NetTransfer(send) + cost_.NetTransfer(recv) +
                    decode;
      if (pre_send > 0 || pre_recv > 0) {
        double pre = cost_.NetTransfer(pre_send) + cost_.NetTransfer(pre_recv);
        comm += std::max(0.0, pre - map_phase_span);
      }
      shuffle_span = std::max(shuffle_span, comm);
    }
    ShuffleExchange::Stats sstats = shuffle.ComputeStats();
    result.metrics["shuffle_local_pairs"] =
        static_cast<int64_t>(sstats.local_pairs);
    result.metrics["shuffle_remote_pairs"] =
        static_cast<int64_t>(sstats.remote_pairs);
    result.metrics["shuffle_wire_bytes"] =
        static_cast<int64_t>(sstats.total_wire_bytes);
    result.metrics["dedup_objects"] =
        static_cast<int64_t>(sstats.deduped_objects);
    result.metrics["dedup_saved_bytes"] =
        static_cast<int64_t>(sstats.dedup_saved_bytes);
    result.metrics["aliased_pairs"] =
        static_cast<int64_t>(sstats.aliased_pairs);
    // Combine-path clones are tracked via the counter; fold both sources.
    result.metrics["cloned_pairs"] =
        static_cast<int64_t>(sstats.cloned_pairs) +
        result.counters.Get(api::counters::kM3rGroup,
                            api::counters::kClonedPairs);
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kLocalShufflePairs,
                              static_cast<int64_t>(sstats.local_pairs));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kRemoteShufflePairs,
                              static_cast<int64_t>(sstats.remote_pairs));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kDedupedObjects,
                              static_cast<int64_t>(sstats.deduped_objects));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kDedupSavedBytes,
                              static_cast<int64_t>(sstats.dedup_saved_bytes));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kAliasedPairs,
                              static_cast<int64_t>(sstats.aliased_pairs));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kClonedPairs,
                              static_cast<int64_t>(sstats.cloned_pairs));
    result.metrics["shuffle_runs_shipped"] =
        static_cast<int64_t>(sstats.runs_shipped);
    result.metrics["shuffle_runs_compacted"] =
        static_cast<int64_t>(sstats.runs_compacted);
    result.metrics["shuffle_overflow_spills"] =
        static_cast<int64_t>(sstats.overflow_spills);
    result.metrics["shuffle_pool_peak_bytes"] =
        static_cast<int64_t>(sstats.peak_resident_run_bytes);
    result.metrics["shuffle_max_partition_run_bytes"] =
        static_cast<int64_t>(sstats.max_partition_run_bytes);
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kShuffleRunsShipped,
                              static_cast<int64_t>(sstats.runs_shipped));
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kShuffleOverflowSpills,
                              static_cast<int64_t>(sstats.overflow_spills));
    result.time_breakdown["shuffle"] = shuffle_span + spec.m3r_barrier_s;
    const double reduce_start = phase_end + spec.m3r_barrier_s + shuffle_span;
    // First reducer starts the moment the barrier drain lands — the
    // pipeline's headline latency win.
    result.metrics["time_to_first_reduce_ms"] =
        static_cast<int64_t>(std::llround(reduce_start * 1000.0));

    // --- Reduce phase ---
    struct ReduceResult {
      Status status;
      double cpu_seconds = 0;
      uint64_t output_bytes = 0;
    };
    std::vector<ReduceResult> reduce_results(
        static_cast<size_t>(num_reduce));
    bool reduce_immutable =
        options_.respect_immutable && ReduceOutputImmutable(conf);
    // Sort-kernel CPU across every reduce task (including work stolen by
    // pool strands), charged to time_breakdown["sort"] below.
    std::mutex sort_mu;
    double sort_cpu_total = 0;

    auto run_reduce_task = [&](int p, int place) {
        ReduceResult& rr = reduce_results[static_cast<size_t>(p)];
        if (cancelled.load(std::memory_order_relaxed)) return;
        if (CancelRequested()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        if (fault != nullptr) {
          rr.status = fault->Check("m3r.reduce", std::to_string(p));
          if (!rr.status.ok()) return;
        }
        CpuStopwatch sw;
        api::CountersReporter reporter(&result.counters);

        // Sort + group (in-memory, same comparator semantics as Hadoop).
        const KVSeq& incoming = shuffle.PartitionPairs(p);
        std::vector<api::KeyedPair> pairs;
        pairs.reserve(incoming.size());
        for (const auto& [k, v] : incoming) {
          api::KeyedPair kp;
          kp.key_bytes = serialize::SerializeToString(*k);
          kp.key = k;
          kp.value = v;
          pairs.push_back(std::move(kp));
        }
        api::SortOptions sort_options;
        if (workers > 1) {
          sort_options.executor = &places_.pool();
          sort_options.max_workers = workers;
        }
        api::SortStats sort_stats;
        api::SortPairs(conf, &pairs, sort_options, &sort_stats);
        {
          std::lock_guard<std::mutex> lock(sort_mu);
          sort_cpu_total += sort_stats.cpu_seconds;
        }
        // The caller-thread share of the sort is already inside `sw`;
        // remember it so the task's generic compute isn't double-charged.
        const double sort_caller = sort_stats.caller_cpu_seconds;
        // The partition's remote pairs arrived as sorted runs; k-way merge
        // them with the (sorted) local pairs instead of re-sorting the
        // whole partition. Equal keys drain local-first, then in (source
        // place, lane, flush seq) order — the order a barrier exchange's
        // lane splice gives a stable sort.
        std::vector<SortedRun> runs;
        rr.status = shuffle.CollectPartitionRuns(p, &runs);
        if (!rr.status.ok()) return;
        if (!runs.empty()) {
          sortkit::RunMerger merger(shuffle_options.run_comparator);
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
          for (const SortedRun& run : runs) {
            remote_records += run.records;
            ins.emplace_back(std::string_view(run.bytes));
          }
          // Each run's record types are resolved once; every record is
          // then built straight from its span, one Writable per field.
          struct RunTypes {
            WritablePtr key;
            WritablePtr value;
          };
          std::unordered_map<uint64_t, RunTypes> types_of;
          types_of.reserve(runs.size());
          auto& registry = serialize::WritableRegistry::Instance();
          for (size_t i = 0; i < runs.size(); ++i) {
            serialize::DataInput* in = &ins[i];
            const uint64_t ord = RunOrdinal(runs[i].src_place,
                                            runs[i].worker_lane,
                                            runs[i].seq);
            types_of.emplace(ord,
                             RunTypes{registry.Create(runs[i].key_type),
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
        }
        reporter.IncrCounter(api::counters::kTaskGroup,
                             api::counters::kReduceInputRecords,
                             static_cast<int64_t>(pairs.size()));

        std::unique_ptr<api::RecordWriter> writer;
        if (!temporary) {
          std::string temp_path =
              api::file_output::TempPath(conf, p, /*attempt=*/0);
          auto writer_or =
              output_format->GetRecordWriter(conf, *fs_, temp_path, place);
          if (!writer_or.ok()) {
            rr.status = writer_or.status();
            return;
          }
          writer = writer_or.take();
        }

        M3RNamedOutputSink named_sink(conf, *fs_, &cache_, p, place,
                                      temporary);
        api::ScopedNamedOutputSink scoped(&named_sink);
        OutputSeqCollector collector(reduce_immutable, writer.get(),
                                     &reporter,
                                     api::counters::kReduceOutputRecords);
        api::SortedPairsGroupSource groups(conf, &pairs);
        bool imm_unused = false;
        rr.status = api::RunReduceTask(conf, groups, collector, reporter,
                                       &imm_unused);
        if (!rr.status.ok()) return;
        if (writer != nullptr) {
          rr.status = writer->Close();
          if (!rr.status.ok()) return;
          rr.output_bytes = writer->BytesWritten();
          api::FileOutputCommitter committer;
          rr.status = committer.CommitTask(conf, *fs_, p, /*attempt=*/0);
          if (!rr.status.ok()) return;
        }
        uint64_t named_bytes = 0;
        rr.status = named_sink.Finish(&named_bytes);
        if (!rr.status.ok()) return;
        rr.output_bytes += named_bytes;

        // Cache the partition's output at this place — the key move that
        // makes the next job's input land here again (§3.2.2.2).
        if (options_.enable_cache) {
          std::string out_file = api::file_output::FinalPath(conf, p);
          rr.status = cache_.PutBlock(out_file, "0", place,
                                      collector.TakeSeq(),
                                      collector.bytes(), sw.ElapsedSeconds(),
                                      /*droppable=*/!temporary,
                                      /*whole_file=*/true);
          if (!rr.status.ok()) return;
        }
        rr.cpu_seconds += std::max(0.0, sw.ElapsedSeconds() - sort_caller);
        membership.Heartbeat(place);
    };
    places_.FinishForAll([&](int place) {
      if (membership.IsDead(place)) return;
      if (!place_alive(place)) return;
      std::vector<int> mine;
      for (int p = 0; p < num_reduce; ++p) {
        if (shuffle.PlaceOfPartition(p) == place) mine.push_back(p);
      }
      if (mine.size() <= 1 || workers <= 1) {
        for (int p : mine) run_reduce_task(p, place);
      } else {
        places_.pool().ParallelFor(
            mine.size(),
            [&](size_t k) { run_reduce_task(mine[k], place); }, workers);
      }
    });
    Status reduce_crash;
    {
      std::lock_guard<std::mutex> lock(crash_mu);
      reduce_crash = crash_status;
    }
    if (!reduce_crash.ok()) {
      // A crash past the map barrier is past the recovery horizon: the
      // dead place's reduce state (sorted runs, partial writers) is not
      // reconstructible from retained shuffle lanes. Tear the place down
      // so its cache blocks don't serve stale data, then fall back to the
      // whole-job retriable failure — the resubmitted attempt heals its
      // inputs from the checkpoint.
      confirm_and_teardown();
      result.sim_seconds = reduce_start;
      return fail_job(std::move(reduce_crash));
    }
    if (cancelled.load()) {
      return fail_job(Status::Cancelled("job cancelled"));
    }
    for (const ReduceResult& rr : reduce_results) {
      if (!rr.status.ok()) return fail_job(rr.status);
    }

    sim::SlotTimeline red_tl(spec, reduce_start);
    for (int p = 0; p < num_reduce; ++p) {
      const ReduceResult& rr = reduce_results[static_cast<size_t>(p)];
      double d = rr.cpu_seconds * spec.data_scale;
      if (!temporary) d += cost_.DfsWrite(rr.output_bytes);
      red_tl.ScheduleOnNode(shuffle.PlaceOfPartition(p), reduce_start, d);
      result.metrics["hdfs_write_bytes"] +=
          static_cast<int64_t>(rr.output_bytes);
      result.counters.Increment(api::counters::kFsGroup,
                                api::counters::kHdfsBytesWritten,
                                static_cast<int64_t>(rr.output_bytes));
    }
    double reduce_end = red_tl.Makespan();
    result.time_breakdown["reduce_phase"] = reduce_end - reduce_start;
    result.metrics["reduce_tasks"] = num_reduce;
    total = reduce_end + spec.m3r_barrier_s;
    // Sort kernel CPU, amortized per slot (same treatment as the
    // integrity charge below).
    if (sort_cpu_total > 0) {
      double sort_s = sort_cpu_total * spec.data_scale / spec.total_slots();
      result.time_breakdown["sort"] = sort_s;
      total += sort_s;
    }
  }

  // --- Commit ---
  if (CancelRequested()) {
    return fail_job(Status::Cancelled("job cancelled"));
  }
  if (!temporary) {
    api::FileOutputCommitter committer;
    Status st = committer.CommitJob(conf, *fs_);
    if (!st.ok()) return fail_job(std::move(st));
  }

  // Commit the cache-only output's manifest: the file set a consumer is
  // entitled to. If a place crash later takes blocks with it, the consumer
  // compares against this record and fails loudly instead of silently
  // computing on the survivors (DESIGN.md §13).
  if (temporary && options_.enable_cache) {
    cache_.RecordManifest(path::Canonicalize(conf.OutputPath()));
  }

  // Spill cache-only outputs to the DFS in the background: "tempout"
  // covers this job's temporary output, "all" sweeps every cache-only file
  // (named outputs, earlier jobs' outputs that predate the policy).
  if (ckpt_policy == "all") {
    ScheduleCheckpoint(AllCacheOnlyFiles());
  } else if (ckpt_policy == "tempout" && temporary) {
    ScheduleCheckpoint(cache_.FilesUnder(conf.OutputPath()));
  }
  if (fault != nullptr) {
    result.metrics["injected_faults"] = fault->InjectedCount();
  }
  // A recovered job still reports its crash history.
  record_crashes();
  // Integrity tallies + checksum CPU, amortized over the cluster's slots
  // (the stamps and verifies ran inside tasks on every place).
  record_integrity();
  if (integrity != nullptr && integrity->enabled()) {
    double integrity_s =
        cost_.Checksum(static_cast<uint64_t>(
            integrity->counters->bytes_checksummed.load())) /
        spec.total_slots();
    result.time_breakdown["integrity"] = integrity_s;
    total += integrity_s;
  }

  // Register the finished output for cross-job reuse: a later submission
  // with the same lineage signature short-circuits to these cached files.
  if (!lineage_sig.empty() && options_.enable_cache) {
    const std::string out = path::Canonicalize(conf.OutputPath());
    std::vector<std::string> out_files = cache_.FilesUnder(out);
    if (!out_files.empty()) {
      cache_manager_->RegisterReuse(lineage_sig, out, out_files);
    }
  }
  // Settle the budget before declaring success: the job is done, so its
  // pins come off and anything admitted above the cache's share is evicted
  // (spilling through the checkpoint path) — steady-state residency honors
  // the configured budget between jobs.
  pins.ReleaseAll();
  if (governor_.governed()) cache_manager_->EvictToBudget();
  record_memgov();

  result.time_breakdown["job_overhead"] = t0;
  // Both paths end on one Team barrier; attribute it explicitly so the
  // per-phase breakdown sums exactly to sim_seconds.
  result.time_breakdown["exit_barrier"] = spec.m3r_barrier_s;
  result.sim_seconds = total;
  result.wall_seconds = wall.ElapsedSeconds();
  result.status = Status::OK();
  ReportProgress(1.0, &result.counters);
  NotifyJobEnd(conf, result);
  return result;
}

}  // namespace m3r::engine

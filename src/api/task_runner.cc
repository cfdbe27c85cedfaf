#include "api/task_runner.h"

#include <algorithm>
#include <cstring>

#include "api/class_registry.h"
#include "api/knobs.h"
#include "api/text_formats.h"
#include "common/sort.h"

namespace m3r::api {

namespace {

/// Hadoop's default MapRunner: allocates the key/value once and refills
/// them per record. Deliberately NOT ImmutableOutput (paper §4.1).
class DefaultMapRunner : public mapred::MapRunnable {
 public:
  explicit DefaultMapRunner(std::shared_ptr<mapred::Mapper> mapper)
      : mapper_(std::move(mapper)) {}

  void Run(RecordReader& input, OutputCollector& output,
           Reporter& reporter) override {
    WritablePtr key = input.CreateKey();
    WritablePtr value = input.CreateValue();
    while (input.Next(*key, *value)) {
      mapper_->Map(key, value, output, reporter);
      reporter.IncrCounter(counters::kTaskGroup, counters::kMapInputRecords,
                           1);
    }
  }

 private:
  std::shared_ptr<mapred::Mapper> mapper_;
};

/// M3R's substitute for the default runner: fresh objects per record, and
/// carries the ImmutableOutput promise (paper §4.1).
class FreshMapRunner : public mapred::MapRunnable, public ImmutableOutput {
 public:
  explicit FreshMapRunner(std::shared_ptr<mapred::Mapper> mapper)
      : mapper_(std::move(mapper)) {}

  void Run(RecordReader& input, OutputCollector& output,
           Reporter& reporter) override {
    for (;;) {
      WritablePtr key = input.CreateKey();
      WritablePtr value = input.CreateValue();
      if (!input.Next(*key, *value)) break;
      mapper_->Map(key, value, output, reporter);
      reporter.IncrCounter(counters::kTaskGroup, counters::kMapInputRecords,
                           1);
    }
  }

 private:
  std::shared_ptr<mapred::Mapper> mapper_;
};

/// MapContext for running a new-API mapper over a RecordReader.
class ReaderMapContext : public mapreduce::MapContext {
 public:
  ReaderMapContext(const JobConf& conf, RecordReader& reader,
                   OutputCollector& collector, Reporter& reporter,
                   bool fresh_objects)
      : conf_(conf),
        reader_(reader),
        collector_(collector),
        reporter_(reporter),
        fresh_objects_(fresh_objects) {}

  bool NextKeyValue() override {
    if (fresh_objects_ || !key_) {
      key_ = reader_.CreateKey();
      value_ = reader_.CreateValue();
    }
    if (!reader_.Next(*key_, *value_)) return false;
    reporter_.IncrCounter(counters::kTaskGroup, counters::kMapInputRecords,
                          1);
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
  RecordReader& reader_;
  OutputCollector& collector_;
  Reporter& reporter_;
  bool fresh_objects_;
  WritablePtr key_;
  WritablePtr value_;
};

/// ReduceContext bridging a GroupSource to a new-API reducer.
class GroupReduceContext : public mapreduce::ReduceContext {
 public:
  GroupReduceContext(const JobConf& conf, GroupSource& groups,
                     OutputCollector& collector, Reporter& reporter)
      : conf_(conf),
        groups_(groups),
        collector_(collector),
        reporter_(reporter) {}

  bool NextKey() override { return groups_.NextGroup(); }
  const WritablePtr& CurrentKey() const override { return groups_.Key(); }
  ValuesIterator& Values() override { return groups_.Values(); }
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
  GroupSource& groups_;
  OutputCollector& collector_;
  Reporter& reporter_;
};

}  // namespace

Status RunMapTask(const JobConf& conf, RecordReader& reader,
                  OutputCollector& collector, Reporter& reporter,
                  MapRunnerMode mode, bool* output_immutable) {
  if (conf.UsesNewApiMapper()) {
    auto mapper = ObjectRegistry<mapreduce::Mapper>::Instance().Create(
        conf.Get(conf::kMapreduceMapper));
    bool fresh = mode == MapRunnerMode::kM3RFresh;
    ReaderMapContext ctx(conf, reader, collector, reporter, fresh);
    mapper->Run(ctx);
    // With fresh input objects the only mutation hazard is the mapper
    // itself reusing its outputs.
    *output_immutable = fresh && IsImmutableOutput(mapper.get());
    return Status::OK();
  }

  if (!conf.Contains(conf::kMapredMapper)) {
    return Status::InvalidArgument("job has no mapper class");
  }
  auto mapper = ObjectRegistry<mapred::Mapper>::Instance().Create(
      conf.Get(conf::kMapredMapper));
  mapper->Configure(conf);

  std::shared_ptr<mapred::MapRunnable> runner;
  bool runner_immutable;
  if (conf.Contains(conf::kMapRunner)) {
    // Custom MapRunnable: its own ImmutableOutput marking governs.
    runner = ObjectRegistry<mapred::MapRunnable>::Instance().Create(
        conf.Get(conf::kMapRunner));
    runner->Configure(conf);
    runner_immutable = IsImmutableOutput(runner.get());
  } else if (mode == MapRunnerMode::kM3RFresh) {
    // M3R detects the default runner and swaps in the fresh-allocating,
    // ImmutableOutput-marked replacement (paper §4.1).
    runner = std::make_shared<FreshMapRunner>(mapper);
    runner_immutable = true;
  } else {
    runner = std::make_shared<DefaultMapRunner>(mapper);
    runner_immutable = false;
  }
  runner->Run(reader, collector, reporter);
  mapper->Close();
  *output_immutable = runner_immutable && IsImmutableOutput(mapper.get());
  return Status::OK();
}

Status RunReduceTask(const JobConf& conf, GroupSource& groups,
                     OutputCollector& collector, Reporter& reporter,
                     bool* output_immutable) {
  if (conf.UsesNewApiReducer()) {
    auto reducer = ObjectRegistry<mapreduce::Reducer>::Instance().Create(
        conf.Get(conf::kMapreduceReducer));
    GroupReduceContext ctx(conf, groups, collector, reporter);
    reducer->Run(ctx);
    *output_immutable = IsImmutableOutput(reducer.get());
    return Status::OK();
  }
  if (!conf.Contains(conf::kMapredReducer)) {
    return Status::InvalidArgument("job has no reducer class");
  }
  auto reducer = ObjectRegistry<mapred::Reducer>::Instance().Create(
      conf.Get(conf::kMapredReducer));
  reducer->Configure(conf);
  int64_t input_groups = 0;  // posted once, not per group
  while (groups.NextGroup()) {
    ++input_groups;
    reducer->Reduce(groups.Key(), groups.Values(), collector, reporter);
  }
  if (input_groups != 0) {
    reporter.IncrCounter(counters::kTaskGroup, counters::kReduceInputGroups,
                         input_groups);
  }
  reducer->Close();
  *output_immutable = IsImmutableOutput(reducer.get());
  return Status::OK();
}

Status RunCombine(const JobConf& conf, GroupSource& groups,
                  OutputCollector& collector, Reporter& reporter) {
  if (conf.UsesNewApiCombiner()) {
    auto combiner = ObjectRegistry<mapreduce::Reducer>::Instance().Create(
        conf.Get(conf::kMapreduceCombiner));
    GroupReduceContext ctx(conf, groups, collector, reporter);
    combiner->Run(ctx);
    return Status::OK();
  }
  if (!conf.Contains(conf::kMapredCombiner)) {
    return Status::InvalidArgument("job has no combiner class");
  }
  auto combiner = ObjectRegistry<mapred::Reducer>::Instance().Create(
      conf.Get(conf::kMapredCombiner));
  combiner->Configure(conf);
  while (groups.NextGroup()) {
    combiner->Reduce(groups.Key(), groups.Values(), collector, reporter);
  }
  combiner->Close();
  return Status::OK();
}

serialize::RawComparatorPtr SortComparator(const JobConf& conf) {
  std::string name =
      conf.Get(conf::kSortComparator, serialize::BytesComparator::kName);
  return serialize::ComparatorRegistry::Instance().Create(name);
}

serialize::RawComparatorPtr GroupingComparator(const JobConf& conf) {
  if (conf.Contains(conf::kGroupingComparator)) {
    return serialize::ComparatorRegistry::Instance().Create(
        conf.Get(conf::kGroupingComparator));
  }
  return SortComparator(conf);
}

std::shared_ptr<Partitioner> MakePartitioner(const JobConf& conf) {
  auto partitioner = ObjectRegistry<Partitioner>::Instance().Create(
      conf.Get(conf::kPartitioner, HashPartitioner::kClassName));
  partitioner->Configure(conf);
  return partitioner;
}

std::shared_ptr<InputFormat> MakeInputFormat(const JobConf& conf) {
  return ObjectRegistry<InputFormat>::Instance().Create(
      conf.Get(conf::kInputFormat, TextInputFormat::kClassName));
}

std::shared_ptr<OutputFormat> MakeOutputFormat(const JobConf& conf) {
  return ObjectRegistry<OutputFormat>::Instance().Create(
      conf.Get(conf::kOutputFormat, TextOutputFormat::kClassName));
}

void SortPairs(const JobConf& conf, std::vector<KeyedPair>* pairs,
               const SortOptions& options) {
  if (pairs->size() < 2) return;
  serialize::RawComparatorPtr cmp = SortComparator(conf);

  std::vector<std::string_view> keys;
  keys.reserve(pairs->size());
  for (const KeyedPair& p : *pairs) keys.emplace_back(p.key_bytes);

  sortkit::SortOptions kopts;
  sortkit::RawCompareFn custom;
  if (std::string_view(cmp->Name()) != serialize::BytesComparator::kName) {
    custom = [&cmp](std::string_view a, std::string_view b) {
      return cmp->Compare(a, b);
    };
    kopts.comparator = &custom;
  }
  kopts.executor = options.executor;
  kopts.max_workers = options.max_workers;
  kopts.parallel_threshold =
      static_cast<size_t>(knobs::Int(conf, conf::kSortParallelThreshold));

  std::vector<uint32_t> perm = sortkit::StableSortPermutation(keys, kopts);
  std::vector<KeyedPair> sorted;
  sorted.reserve(pairs->size());
  for (uint32_t i : perm) sorted.push_back(std::move((*pairs)[i]));
  *pairs = std::move(sorted);
}

SortedPairsGroupSource::SortedPairsGroupSource(
    const JobConf& conf, const std::vector<KeyedPair>* pairs)
    : SortedPairsGroupSource(GroupingComparator(conf), pairs) {}

SortedPairsGroupSource::SortedPairsGroupSource(
    serialize::RawComparatorPtr grouping, const std::vector<KeyedPair>* pairs)
    : pairs_(pairs),
      grouping_(std::move(grouping)),
      grouping_is_bytes_(std::string_view(grouping_->Name()) ==
                         serialize::BytesComparator::kName) {}

bool SortedPairsGroupSource::NextGroup() {
  group_start_ = group_end_;
  if (group_start_ >= pairs_->size()) return false;
  group_end_ = group_start_ + 1;
  const std::string& first = (*pairs_)[group_start_].key_bytes;
  while (group_end_ < pairs_->size()) {
    const std::string& next = (*pairs_)[group_end_].key_bytes;
    // Byte-equal keys compare equal under any valid comparator, so they
    // never end a group; and when grouping is the byte default, byte
    // inequality is equally decisive. Either way the common case skips
    // the virtual call.
    const bool byte_equal =
        first.data() == next.data() ||
        (first.size() == next.size() &&
         std::memcmp(first.data(), next.data(), first.size()) == 0);
    if (!byte_equal) {
      if (grouping_is_bytes_) break;
      if (grouping_->Compare(first, next) != 0) break;
    }
    ++group_end_;
  }
  cursor_ = group_start_;
  return true;
}

const WritablePtr& SortedPairsGroupSource::Key() const {
  return (*pairs_)[group_start_].key;
}

ValuesIterator& SortedPairsGroupSource::Values() { return iter_; }

bool SortedPairsGroupSource::Iter::HasNext() {
  return src_->cursor_ < src_->group_end_;
}

WritablePtr SortedPairsGroupSource::Iter::Next() {
  M3R_CHECK(HasNext()) << "ValuesIterator exhausted";
  return (*src_->pairs_)[src_->cursor_++].value;
}

}  // namespace m3r::api

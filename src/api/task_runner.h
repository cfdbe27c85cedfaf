#ifndef M3R_API_TASK_RUNNER_H_
#define M3R_API_TASK_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/input_format.h"
#include "api/job_conf.h"
#include "api/mr_api.h"
#include "api/output_format.h"
#include "common/executor.h"
#include "serialize/comparators.h"

namespace m3r::api {

/// How the engine drives the map input loop when the job does not supply a
/// custom MapRunnable (paper §4.1).
enum class MapRunnerMode {
  /// Hadoop's default MapRunner: one key/value object allocated up front
  /// and refilled for every record (object reuse).
  kHadoopDefault,
  /// M3R's automatic replacement for the default runner: fresh key/value
  /// objects per record, marked ImmutableOutput, so identity-style mappers
  /// do not leak mutated inputs into the cache.
  kM3RFresh,
};

/// Runs the map side of a task over `reader`, dispatching to the job's
/// old-API mapper (+ optional custom MapRunnable) or new-API mapper.
///
/// On return, `*output_immutable` says whether the engine may treat the
/// collected pairs as immutable: true only if every producing class in the
/// chain (runner and mapper) carries the ImmutableOutput promise.
Status RunMapTask(const JobConf& conf, RecordReader& reader,
                  OutputCollector& collector, Reporter& reporter,
                  MapRunnerMode mode, bool* output_immutable);

/// Engine-agnostic source of reduce groups: a key plus its value stream,
/// advanced group by group.
class GroupSource {
 public:
  virtual ~GroupSource() = default;
  virtual bool NextGroup() = 0;
  virtual const WritablePtr& Key() const = 0;
  virtual ValuesIterator& Values() = 0;
};

/// Runs the reduce side over `groups` with the job's old- or new-API
/// reducer; `*output_immutable` as for RunMapTask.
Status RunReduceTask(const JobConf& conf, GroupSource& groups,
                     OutputCollector& collector, Reporter& reporter,
                     bool* output_immutable);

/// Runs the job's combiner (old or new API) over `groups`.
/// Precondition: conf.HasCombiner().
Status RunCombine(const JobConf& conf, GroupSource& groups,
                  OutputCollector& collector, Reporter& reporter);

/// In-memory pair with its key pre-serialized for raw-comparator sorting.
struct KeyedPair {
  std::string key_bytes;
  WritablePtr key;
  WritablePtr value;
};

/// Host-parallelism knobs for SortPairs. The executor-parallel path only
/// engages above m3r.sort.parallel.threshold pairs.
struct SortOptions {
  Executor* executor = nullptr;
  int max_workers = 1;
};

/// Sorts `pairs` by the job's sort comparator (stable, preserving map
/// emission order within equal keys, as Hadoop's sort does). Runs on the
/// prefix-cached kernel in common/sort.h; the virtual comparator is only
/// consulted when the job overrides the BytesComparator default.
void SortPairs(const JobConf& conf, std::vector<KeyedPair>* pairs,
               const SortOptions& options = {});

/// GroupSource over sorted in-memory pairs, applying the job's grouping
/// comparator (secondary-sort semantics: one reduce call per group of keys
/// that compare equal under the grouping comparator; the key exposed is the
/// first key of the group).
class SortedPairsGroupSource : public GroupSource {
 public:
  SortedPairsGroupSource(const JobConf& conf,
                         const std::vector<KeyedPair>* pairs);
  /// Groups with an explicit comparator (e.g. combine groups with the sort
  /// comparator regardless of the user's grouping comparator).
  SortedPairsGroupSource(serialize::RawComparatorPtr grouping,
                         const std::vector<KeyedPair>* pairs);
  bool NextGroup() override;
  const WritablePtr& Key() const override;
  ValuesIterator& Values() override;

 private:
  class Iter : public ValuesIterator {
   public:
    explicit Iter(SortedPairsGroupSource* src) : src_(src) {}
    bool HasNext() override;
    WritablePtr Next() override;

   private:
    SortedPairsGroupSource* src_;
  };

  const std::vector<KeyedPair>* pairs_;
  serialize::RawComparatorPtr grouping_;
  /// True when grouping_ is the byte-equality default — then a negative
  /// byte-equality fast path also decides group *boundaries*, and the
  /// virtual call disappears from NextGroup entirely.
  bool grouping_is_bytes_ = false;
  size_t group_start_ = 0;
  size_t group_end_ = 0;
  size_t cursor_ = 0;
  Iter iter_{this};
};

/// Resolves the job's sort comparator (default: raw byte comparison).
serialize::RawComparatorPtr SortComparator(const JobConf& conf);
/// Resolves the grouping comparator (default: the sort comparator).
serialize::RawComparatorPtr GroupingComparator(const JobConf& conf);

/// Creates the job's partitioner (default HashPartitioner), configured.
std::shared_ptr<Partitioner> MakePartitioner(const JobConf& conf);
/// Creates the job's input format (default TextInputFormat).
std::shared_ptr<InputFormat> MakeInputFormat(const JobConf& conf);
/// Creates the job's output format (default TextOutputFormat).
std::shared_ptr<OutputFormat> MakeOutputFormat(const JobConf& conf);

}  // namespace m3r::api

#endif  // M3R_API_TASK_RUNNER_H_

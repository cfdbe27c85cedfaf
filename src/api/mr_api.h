#ifndef M3R_API_MR_API_H_
#define M3R_API_MR_API_H_

#include <memory>
#include <string>

#include "api/configuration.h"
#include "api/counters.h"
#include "api/extensions.h"
#include "serialize/basic_writables.h"
#include "serialize/writable.h"

namespace m3r::api {

using serialize::Writable;
using serialize::WritablePtr;

class JobConf;

/// Sink for map/reduce output, Hadoop's OutputCollector. Per the HMR
/// contract the engine must assume the caller may mutate `key`/`value`
/// after collect() returns (object reuse), unless the producing class
/// implements ImmutableOutput.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;
  virtual void Collect(const WritablePtr& key, const WritablePtr& value) = 0;
};

/// Progress/counter facade handed to user code, Hadoop's Reporter.
class Reporter {
 public:
  virtual ~Reporter() = default;
  virtual void IncrCounter(const std::string& group, const std::string& name,
                           int64_t delta) = 0;
  virtual void Progress() {}
  virtual void SetStatus(const std::string&) {}
};

/// Reporter that drops progress and routes counters into a Counters object.
class CountersReporter : public Reporter {
 public:
  explicit CountersReporter(Counters* counters) : counters_(counters) {}
  void IncrCounter(const std::string& group, const std::string& name,
                   int64_t delta) override {
    counters_->Increment(group, name, delta);
  }

 private:
  Counters* counters_;
};

/// Streaming iterator over the values of one reduce group.
class ValuesIterator {
 public:
  virtual ~ValuesIterator() = default;
  virtual bool HasNext() = 0;
  virtual WritablePtr Next() = 0;
};

/// Maps keys to reduce partitions (Hadoop's Partitioner). Used for load
/// balancing and, under M3R's partition-stability guarantee, for locality
/// (paper §3.2.2.2).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual void Configure(const JobConf&) {}
  virtual int GetPartition(const Writable& key, const Writable& value,
                           int num_partitions) = 0;
};

/// Default partitioner: hash(key) mod partitions.
class HashPartitioner : public Partitioner {
 public:
  static constexpr const char* kClassName = "HashPartitioner";
  int GetPartition(const Writable& key, const Writable&,
                   int num_partitions) override {
    return static_cast<int>(key.HashCode() % num_partitions);
  }
};

class RecordReader;

/// ------------------------- old-style "mapred" API -----------------------

namespace mapred {

class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Configure(const JobConf&) {}
  virtual void Map(const WritablePtr& key, const WritablePtr& value,
                   OutputCollector& output, Reporter& reporter) = 0;
  virtual void Close() {}
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Configure(const JobConf&) {}
  virtual void Reduce(const WritablePtr& key, ValuesIterator& values,
                      OutputCollector& output, Reporter& reporter) = 0;
  virtual void Close() {}
};

/// Manually drives a map task's input loop (old API). The default
/// implementation (DefaultMapRunner in task_runner.cc) reuses one key/value
/// pair for every record, exactly like Hadoop's MapRunner — which is why it
/// does NOT satisfy ImmutableOutput and why M3R swaps in a fresh-allocating
/// replacement when it detects the default (paper §4.1).
class MapRunnable {
 public:
  virtual ~MapRunnable() = default;
  virtual void Configure(const JobConf&) {}
  virtual void Run(RecordReader& input, OutputCollector& output,
                   Reporter& reporter) = 0;
};

/// Identity mapper: passes input pairs through.
class IdentityMapper : public Mapper {
 public:
  static constexpr const char* kClassName = "IdentityMapper";
  void Map(const WritablePtr& key, const WritablePtr& value,
           OutputCollector& output, Reporter&) override {
    output.Collect(key, value);
  }
};

/// Identity reducer: emits each (key, value) unchanged. It only forwards
/// objects the engine built for it and never mutates them, so it carries
/// the ImmutableOutput promise and M3R caches its output as aliases. The
/// identity mapper does not: it forwards whatever its MapRunnable hands
/// it, which under Hadoop's default runner is a reused pair.
class IdentityReducer : public Reducer, public ImmutableOutput {
 public:
  static constexpr const char* kClassName = "IdentityReducer";
  void Reduce(const WritablePtr& key, ValuesIterator& values,
              OutputCollector& output, Reporter&) override {
    while (values.HasNext()) output.Collect(key, values.Next());
  }
};

}  // namespace mapred

/// ----------------------- new-style "mapreduce" API ----------------------

namespace mapreduce {

/// Context handed to new-API mappers: input iteration + output + counters.
class MapContext {
 public:
  virtual ~MapContext() = default;
  virtual bool NextKeyValue() = 0;
  virtual const WritablePtr& CurrentKey() const = 0;
  virtual const WritablePtr& CurrentValue() const = 0;
  virtual void Write(const WritablePtr& key, const WritablePtr& value) = 0;
  virtual void IncrCounter(const std::string& group, const std::string& name,
                           int64_t delta) = 0;
  virtual const JobConf& Conf() const = 0;
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Setup(MapContext&) {}
  virtual void Map(const WritablePtr& key, const WritablePtr& value,
                   MapContext& context) = 0;
  virtual void Cleanup(MapContext&) {}
  /// Override to customize the whole task loop, as in Hadoop.
  virtual void Run(MapContext& context) {
    Setup(context);
    while (context.NextKeyValue()) {
      Map(context.CurrentKey(), context.CurrentValue(), context);
    }
    Cleanup(context);
  }
};

/// Context handed to new-API reducers: group iteration + output + counters.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  virtual bool NextKey() = 0;
  virtual const WritablePtr& CurrentKey() const = 0;
  virtual ValuesIterator& Values() = 0;
  virtual void Write(const WritablePtr& key, const WritablePtr& value) = 0;
  virtual void IncrCounter(const std::string& group, const std::string& name,
                           int64_t delta) = 0;
  virtual const JobConf& Conf() const = 0;
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Setup(ReduceContext&) {}
  virtual void Reduce(const WritablePtr& key, ValuesIterator& values,
                      ReduceContext& context) = 0;
  virtual void Cleanup(ReduceContext&) {}
  virtual void Run(ReduceContext& context) {
    Setup(context);
    while (context.NextKey()) {
      Reduce(context.CurrentKey(), context.Values(), context);
    }
    Cleanup(context);
  }
};

}  // namespace mapreduce

}  // namespace m3r::api

#endif  // M3R_API_MR_API_H_

#ifndef M3R_HADOOP_NAMED_OUTPUT_H_
#define M3R_HADOOP_NAMED_OUTPUT_H_

#include <map>
#include <memory>
#include <string>

#include "api/class_registry.h"
#include "api/job_conf.h"
#include "api/multiple_io.h"
#include "api/output_format.h"
#include "dfs/file_system.h"

namespace m3r::hadoop {

/// Hadoop-side MultipleOutputs sink, shared by map and reduce tasks: writes
/// each named output directly through its configured format to
/// <outdir>/<name>-part-<task>, where `task` is the map task or reduce
/// partition index.
class HadoopNamedOutputSink : public api::NamedOutputSink {
 public:
  HadoopNamedOutputSink(const api::JobConf& conf, dfs::FileSystem& fs,
                        int task, int node)
      : conf_(conf), fs_(fs), task_(task), node_(node) {}

  ~HadoopNamedOutputSink() override {
    for (auto& [name, writer] : writers_) M3R_CHECK_OK(writer->Close());
  }

  Status WriteNamed(const std::string& name, const api::WritablePtr& key,
                    const api::WritablePtr& value) override {
    auto it = writers_.find(name);
    if (it == writers_.end()) {
      std::string format_name =
          api::MultipleOutputs::OutputFormatFor(conf_, name);
      if (format_name.empty()) {
        return Status::InvalidArgument("unknown named output: " + name);
      }
      auto format = api::ObjectRegistry<api::OutputFormat>::Instance().Create(
          format_name);
      std::string path = conf_.OutputPath() + "/" + name + "-" +
                         api::file_output::PartFileName(task_);
      M3R_ASSIGN_OR_RETURN(std::unique_ptr<api::RecordWriter> writer,
                           format->GetRecordWriter(conf_, fs_, path, node_));
      it = writers_.emplace(name, std::move(writer)).first;
    }
    return it->second->Write(*key, *value);
  }

  uint64_t BytesWritten() const {
    uint64_t total = 0;
    for (const auto& [name, writer] : writers_) {
      total += writer->BytesWritten();
    }
    return total;
  }

 private:
  const api::JobConf& conf_;
  dfs::FileSystem& fs_;
  int task_;
  int node_;
  std::map<std::string, std::unique_ptr<api::RecordWriter>> writers_;
};

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_NAMED_OUTPUT_H_

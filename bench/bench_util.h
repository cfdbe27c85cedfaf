#ifndef M3R_BENCH_BENCH_UTIL_H_
#define M3R_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "sim/cost_model.h"

namespace m3r::bench {

/// The paper's testbed (§6): 20 IBM LS-22 blades, 8 cores each, GigE.
/// All figure benchmarks report simulated seconds under this spec.
/// Benchmarks run inputs scaled down ~256x from the paper's sizes (MBs
/// standing in for GBs) so the whole suite finishes in minutes;
/// data_scale compensates by charging byte-proportional costs and user
/// CPU at full size. EXPERIMENTS.md records the per-figure mapping.
inline constexpr double kDataScale = 256;

inline sim::ClusterSpec PaperCluster() {
  sim::ClusterSpec spec;  // defaults model exactly this cluster
  spec.num_nodes = 20;
  spec.slots_per_node = 8;
  spec.data_scale = kDataScale;
  return spec;
}

/// HDFS-like DFS for the paper cluster. Block size is scaled (64 KB vs the
/// real 64 MB) in the same ratio as the scaled-down workloads, preserving
/// splits-per-job shape.
inline std::shared_ptr<dfs::FileSystem> PaperDfs() {
  return dfs::MakeSimDfs(PaperCluster().num_nodes, 64 * 1024, 3);
}

/// Fixed-width table printer for figure series.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%*s", i ? "  " : "", 14, columns_[i].c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%*s", i ? "  " : "", 14, "------------");
    }
    std::printf("\n");
  }

  void Row(const std::vector<double>& values) {
    for (size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%*.2f", i ? "  " : "", 14, values[i]);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
};

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// One benchmark run, rendered as one JSON object. Every BENCH_*.json
/// shares this schema so downstream tooling reads them alike.
struct Record {
  std::string bench;
  std::string config;
  double wall_seconds = 0;
  double sim_seconds = 0;
  int64_t wire_bytes = 0;
  std::vector<std::pair<std::string, int64_t>> counters;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

inline std::string ToJson(const std::vector<Record>& records) {
  std::ostringstream os;
  os << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char nums[128];
    std::snprintf(nums, sizeof(nums),
                  "\"wall_seconds\": %.6f, \"sim_seconds\": %.3f, "
                  "\"wire_bytes\": %lld",
                  r.wall_seconds, r.sim_seconds,
                  static_cast<long long>(r.wire_bytes));
    os << "  {\"bench\": \"" << JsonEscape(r.bench) << "\", \"config\": \""
       << JsonEscape(r.config) << "\", " << nums << ", \"counters\": {";
    for (size_t c = 0; c < r.counters.size(); ++c) {
      os << (c ? ", " : "") << "\"" << JsonEscape(r.counters[c].first)
         << "\": " << r.counters[c].second;
    }
    os << "}}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

}  // namespace m3r::bench

#endif  // M3R_BENCH_BENCH_UTIL_H_

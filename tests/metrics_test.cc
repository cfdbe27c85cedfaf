// The metric catalogue (src/api/metrics.{h,cc}): the Add/Set contract, the
// README metric table held to the rows, and, on every exit of both engines
// and a served job, only declared metrics with every mirror equal to its
// metric at job end.
#include "api/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exit_paths.h"
#include "readme_table.h"
#include "m3r/server.h"

namespace m3r::api {
namespace {

std::string Mirror(const metrics::Metric& row) {
  return row.group == nullptr
             ? "-"
             : std::string(row.group) + "/" + row.counter;
}

/// A row's unit, kind and mirror as the README table spells them.
std::string Columns(const metrics::Metric& row) {
  static constexpr const char* kUnits[] = {"count", "bytes", "ms", "flag"};
  return std::string(kUnits[static_cast<int>(row.unit)]) + " " +
         (row.kind == metrics::Kind::kSum ? "sum" : "set") + " " + Mirror(row);
}

TEST(MetricsTest, RowsAreUniqueAndEachMirrorIsWhole) {
  std::set<std::string> names;
  std::set<std::string> mirrors;
  for (const metrics::Metric& row : metrics::Table()) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_EQ(row.group == nullptr, row.counter == nullptr) << row.name;
    if (row.group != nullptr) {
      EXPECT_TRUE(mirrors.insert(Mirror(row)).second) << row.name;
    }
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(metric::kNumIds));
}

TEST(MetricsTest, AddAndSetWriteTheMetricAndItsMirror) {
  JobResult r;
  // A zero Add reports the metric but leaves its mirror unset.
  metrics::Add(&r, metric::kHdfsWriteBytes, 0);
  EXPECT_EQ(r.metrics.at("hdfs_write_bytes"), 0);
  EXPECT_TRUE(r.counters.Snapshot().empty());
  metrics::Add(&r, metric::kHdfsWriteBytes, 5);
  metrics::Add(&r, metric::kHdfsWriteBytes, 7);
  EXPECT_EQ(r.metrics.at("hdfs_write_bytes"), 12);
  EXPECT_EQ(r.counters.Get(counters::kFsGroup, counters::kHdfsBytesWritten),
            12);
  // Set moves the mirror to the value, whatever a live sync left there.
  metrics::SetMirror(&r.counters, metric::kCacheEvictions, 9);
  EXPECT_EQ(r.metrics.count("cache_evictions"), 0u);
  metrics::Set(&r, metric::kCacheEvictions, 4);
  EXPECT_EQ(r.metrics.at("cache_evictions"), 4);
  EXPECT_EQ(r.counters.Get(counters::kM3rGroup, counters::kCacheEvictions), 4);
  metrics::Set(&r, metric::kMapTasks, 3);
  EXPECT_EQ(r.metrics.at("map_tasks"), 3);
  EXPECT_EQ(r.counters.Snapshot().size(), 2u);
}

/// Rows of README.md's "Canonical job metric names" table, as
/// name -> "unit kind mirror", with "-" for no mirror.
std::map<std::string, std::string> ReadmeMetricRows() {
  std::map<std::string, std::string> rows;
  // | `name` | unit | kind | `Group/NAME` or - | meaning |
  for (const std::vector<std::string>& cells :
       readme::TableRows("| Metric | Unit | Kind | Counter mirror |")) {
    EXPECT_EQ(cells.size(), 5u) << cells[0];
    if (cells.size() < 4) continue;
    EXPECT_TRUE(rows.emplace(cells[0], cells[1] + " " + cells[2] + " " +
                                           cells[3])
                    .second)
        << "listed twice: " << cells[0];
  }
  return rows;
}

TEST(MetricsTest, ReadmeTableListsExactlyTheCatalogue) {
  std::map<std::string, std::string> declared;
  for (const metrics::Metric& row : metrics::Table()) {
    declared[row.name] = Columns(row);
  }
  EXPECT_EQ(ReadmeMetricRows(), declared);
}

/// Every metric key is a declared row, and every declared mirror equals its
/// metric (0 when absent) at job end.
void ExpectDeclaredAndMirrored(const std::string& exit, const JobResult& r) {
  std::set<std::string> names;
  for (const metrics::Metric& row : metrics::Table()) {
    names.insert(row.name);
    if (row.group == nullptr) continue;
    auto it = r.metrics.find(row.name);
    const int64_t value = it == r.metrics.end() ? 0 : it->second;
    EXPECT_EQ(r.counters.Get(row.group, row.counter), value)
        << exit << ": " << row.name << " vs " << Mirror(row);
  }
  for (const auto& [name, value] : r.metrics) {
    EXPECT_TRUE(names.count(name)) << exit << ": undeclared metric " << name;
  }
}

TEST(MetricsTest, EveryM3RExitReportsDeclaredMetricsWithEqualMirrors) {
  for (const exit_paths::NamedExit& e : exit_paths::kAllExits) {
    ExpectDeclaredAndMirrored(std::string("m3r ") + e.name,
                              exit_paths::RunExit(e.exit));
  }
}

TEST(MetricsTest, EveryHadoopExitReportsDeclaredMetricsWithEqualMirrors) {
  for (const exit_paths::HadoopExitCase& c : exit_paths::kHadoopExitCases) {
    JobResult r = exit_paths::RunHadoopExit(c.exit);
    ASSERT_EQ(r.ok(), c.ok) << c.name << ": " << r.status.ToString();
    ExpectDeclaredAndMirrored(std::string("hadoop ") + c.name, r);
  }
}

TEST(MetricsTest, ServedJobReportsDeclaredMetricsWithEqualMirrors) {
  auto fs = exit_paths::ExitInput();
  engine::M3REngineOptions opts;
  opts.cluster.num_nodes = 4;
  opts.cluster.slots_per_node = 2;
  engine::JobServer server(std::make_shared<engine::M3REngine>(fs, opts));
  Submission sub;
  sub.conf = workloads::MakeWordCountJob("/in", "/out", 2, true);
  auto ticket = server.Submit(sub);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  JobResult r = ticket->Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.metrics.at("sched_attempts"), 1);
  ExpectDeclaredAndMirrored("served", r);
}

}  // namespace
}  // namespace m3r::api

// The phase catalogue and job clock (src/api/phases.{h,cc}): the clock's
// arithmetic, the README phase table held to the rows, and, on every exit
// of both engines, only phases that engine declares.
#include "api/phases.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "exit_paths.h"
#include "readme_table.h"

namespace m3r::api {
namespace {

/// A row's engines as the README table spells them.
std::string EnginesName(phases::Engines engines) {
  switch (engines) {
    case phases::Engines::kM3R:
      return "M3R";
    case phases::Engines::kHadoop:
      return "Hadoop";
    case phases::Engines::kBoth:
      return "both";
  }
  return "?";
}

TEST(PhasesTest, RowsAreUnique) {
  std::set<std::string> names;
  for (const phases::Phase& row : phases::Table()) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(phase::kNumIds));
}

TEST(PhasesTest, ClockPublishesItsReadingAndThePerPhaseSums) {
  phases::Clock clock;
  clock.Charge(phase::kJobOverhead, 0.5);
  clock.AdvanceTo(phase::kMapPhase, 2.0);
  EXPECT_EQ(clock.now(), 2.0);
  clock.Charge(phase::kShuffle, 0.25);
  clock.Charge(phase::kShuffle, 0.5);
  clock.AdvanceTo(phase::kReducePhase, 2.75);  // an empty phase still shows
  clock.Charge(phase::kExitBarrier, 0.25);

  JobResult r;
  r.time_breakdown["stale"] = 9;
  clock.Publish(&r);
  EXPECT_EQ(r.sim_seconds, 3.0);
  const std::map<std::string, double> want = {
      {"job_overhead", 0.5}, {"map_phase", 1.5},    {"shuffle", 0.75},
      {"reduce_phase", 0.0}, {"exit_barrier", 0.25}};
  EXPECT_EQ(r.time_breakdown, want);
}

/// Rows of README.md's "Simulated-time phases" table, as name -> engines.
std::map<std::string, std::string> ReadmePhaseRows() {
  std::map<std::string, std::string> rows;
  // | `name` | engines | what it charges |
  for (const std::vector<std::string>& cells :
       readme::TableRows("| Phase | Engines | Charges |")) {
    EXPECT_EQ(cells.size(), 3u) << cells[0];
    if (cells.size() < 2) continue;
    EXPECT_TRUE(rows.emplace(cells[0], cells[1]).second)
        << "listed twice: " << cells[0];
  }
  return rows;
}

TEST(PhasesTest, ReadmeTableListsExactlyTheCatalogue) {
  std::map<std::string, std::string> declared;
  for (const phases::Phase& row : phases::Table()) {
    declared[row.name] = EnginesName(row.engines);
  }
  EXPECT_EQ(ReadmePhaseRows(), declared);
}

/// Every breakdown key is a row that `engine` charges.
void ExpectDeclaredPhases(phases::Engines engine, const std::string& exit,
                          const JobResult& r) {
  std::set<std::string> names;
  for (const phases::Phase& row : phases::Table()) {
    if (row.engines == engine || row.engines == phases::Engines::kBoth) {
      names.insert(row.name);
    }
  }
  for (const auto& [name, seconds] : r.time_breakdown) {
    EXPECT_TRUE(names.count(name)) << exit << ": undeclared phase " << name;
  }
}

TEST(PhasesTest, EveryM3RExitReportsOnlyDeclaredPhases) {
  for (const exit_paths::NamedExit& e : exit_paths::kAllExits) {
    ExpectDeclaredPhases(phases::Engines::kM3R, std::string("m3r ") + e.name,
                         exit_paths::RunExit(e.exit));
  }
}

TEST(PhasesTest, EveryHadoopExitReportsOnlyDeclaredPhases) {
  for (const exit_paths::HadoopExitCase& c : exit_paths::kHadoopExitCases) {
    JobResult r = exit_paths::RunHadoopExit(c.exit);
    ASSERT_EQ(r.ok(), c.ok) << c.name << ": " << r.status.ToString();
    ExpectDeclaredPhases(phases::Engines::kHadoop,
                         std::string("hadoop ") + c.name, r);
  }
}

}  // namespace
}  // namespace m3r::api

// The experiment driver's claim evaluator: a claim whose outcome differs
// from its declared expectation fails the driver, in either direction,
// naming the row and the claim; arms whose outputs differ abort it; rows
// of the other scale do not run; smoke rows write their trajectory file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "experiments.h"

namespace m3r::bench {
namespace {

/// A one-arm row whose measure writes v = 1 and whose claims are `claims`.
Row FixtureRow(std::string id, std::vector<Claim> claims,
               Scale scale = Scale::kPaper) {
  Row row;
  row.id = std::move(id);
  row.section = "fixture";
  row.scale = scale;
  Arm arm;
  arm.name = "arm";
  row.arms = {arm};
  row.measure = [](const Arm&, double, Line* line, std::vector<Record>*) {
    line->Set("v", 1);
  };
  row.claims = std::move(claims);
  return row;
}

bool VIsOne(const Sheet& s) { return s.At("arm")["v"] == 1; }
bool VIsTwo(const Sheet& s) { return s.At("arm")["v"] == 2; }

struct Outcome {
  int exit_code;
  std::string out;
  std::string err;
};

Outcome Drive(const std::vector<Row>& rows,
              std::vector<const char*> args = {"--scale", "paper"}) {
  args.insert(args.begin(), "m3r_experiments");
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code =
      ExperimentsMain(rows, static_cast<int>(args.size()), args.data());
  std::string out = testing::internal::GetCapturedStdout();
  return {code, out, testing::internal::GetCapturedStderr()};
}

TEST(ExperimentsTest, ClaimsMeetingTheirExpectationsPass) {
  Outcome o = Drive({FixtureRow(
      "ok_row", {{"v is one", VIsOne},
                 {.text = "v is two",
                  .test = VIsTwo,
                  .deviation = "the fixture writes 1"}})});
  EXPECT_EQ(o.exit_code, 0) << o.err;
  EXPECT_NE(o.out.find("| arm | 1 |"), std::string::npos) << o.out;
  EXPECT_NE(o.out.find("- ✓ v is one"), std::string::npos) << o.out;
  EXPECT_NE(o.out.find("- ✗ v is two — deviation: the fixture writes 1"),
            std::string::npos)
      << o.out;
}

TEST(ExperimentsTest, HoldsClaimThatFailsExitsNonZeroNamingRowAndClaim) {
  Outcome o = Drive({FixtureRow("broken_row", {{"v is two", VIsTwo}})});
  EXPECT_NE(o.exit_code, 0);
  EXPECT_NE(o.err.find("broken_row: claim \"v is two\" fails"),
            std::string::npos)
      << o.err;
}

TEST(ExperimentsTest, DeviationThatHoldsExitsNonZeroNamingRowAndClaim) {
  Outcome o = Drive({FixtureRow(
      "fixed_row",
      {{.text = "v is one", .test = VIsOne, .deviation = "stale reason"}})});
  EXPECT_NE(o.exit_code, 0);
  EXPECT_NE(o.err.find("fixed_row: claim \"v is one\" holds, but is "
                       "declared a deviation (stale reason)"),
            std::string::npos)
      << o.err;
}

TEST(ExperimentsTest, RunsOnlyTheRowsOfTheRequestedScale) {
  Outcome o = Drive({FixtureRow("paper_row", {{"v is one", VIsOne}}),
                     FixtureRow("smoke_row", {{"v is two", VIsTwo}},
                                Scale::kSmoke)});
  EXPECT_EQ(o.exit_code, 0) << o.err;
  EXPECT_NE(o.out.find("### paper_row"), std::string::npos);
  EXPECT_EQ(o.out.find("### smoke_row"), std::string::npos);
  EXPECT_EQ(Drive({}, {"--scale", "tiny"}).exit_code, 2);
}

TEST(ExperimentsDeathTest, ArmsWhoseOutputsDifferAbortNamingTheRow) {
  Row row = FixtureRow("diverging_row", {});
  Arm other;
  other.name = "other";
  row.arms.push_back(other);
  row.measure = [](const Arm& arm, double, Line* line, std::vector<Record>*) {
    line->output = {arm.name == "arm" ? "a\t1" : "a\t2"};
  };
  EXPECT_DEATH(ExperimentsMain({row}, 3,
                               std::vector<const char*>{"m3r_experiments",
                                                        "--scale", "paper"}
                                   .data()),
               "diverging_row: other's output differs");
}

TEST(ExperimentsTest, SmokeRowsWriteTheirTrajectoryFile) {
  Row row = FixtureRow("json_row", {}, Scale::kSmoke);
  row.json = "fixture";
  row.measure = [](const Arm& arm, double, Line* line,
                   std::vector<Record>* records) {
    line->Set("v", 1);
    records->push_back({"fixture", arm.name, 0.5, 1.25, 7, {{"n", 3}}});
  };
  const std::string dir = testing::TempDir();
  Outcome o = Drive({row}, {"--scale", "smoke", "--out-dir", dir.c_str(),
                            "--suffix", ".test"});
  ASSERT_EQ(o.exit_code, 0) << o.err;
  const std::string path = dir + "/BENCH_fixture.test.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"config\": \"arm\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"n\": 3"), std::string::npos) << text;
}

}  // namespace
}  // namespace m3r::bench

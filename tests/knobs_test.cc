// The declared m3r.* knob table (api/knobs.h): defaults, ranges, family
// and retired rows, the unknown-key rule, agreement with every conf a
// shipped caller builds, and the README knob tables.
#include "api/knobs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/job_conf.h"
#include "common/chaos.h"
#include "common/integrity.h"
#include "common/sort.h"
#include "memgov/cache_manager.h"
#include "readme_table.h"

namespace m3r::api {
namespace {

/// A concrete key for a row: a family row gets a real fault site.
std::string ConcreteKey(const knobs::Knob& row) {
  std::string key = row.key;
  const size_t at = key.find("<site>");
  if (at != std::string::npos) key.replace(at, 6, "dfs.read");
  return key;
}

Status ValidateOne(const std::string& key, const std::string& value) {
  JobConf conf;
  conf.Set(key, value);
  return knobs::ValidateKnobs(conf);
}

TEST(KnobsTest, EveryRowIsDeclaredOnceAndItsDefaultValidates) {
  std::set<std::string> keys;
  for (const knobs::Knob& row : knobs::Table()) {
    EXPECT_TRUE(keys.insert(row.key).second) << "declared twice: " << row.key;
    EXPECT_EQ(std::string(row.key).rfind("m3r.", 0), 0u) << row.key;
    if (row.type == knobs::Type::kRetired) {
      EXPECT_TRUE(ValidateOne(row.key, row.values).ok()) << row.key;
      continue;
    }
    Status st = ValidateOne(ConcreteKey(row), row.def);
    EXPECT_TRUE(st.ok()) << row.key << ": " << st.ToString();
  }
}

TEST(KnobsTest, GettersReturnTheRowDefaultWhenUnset) {
  const JobConf empty;
  EXPECT_FALSE(knobs::Bool(empty, conf::kMapHashCombine));
  EXPECT_EQ(knobs::Int(empty, conf::kShuffleFlushBytes), 256 * 1024);
  EXPECT_EQ(knobs::Int(empty, conf::kSortParallelThreshold),
            static_cast<int64_t>(sortkit::kDefaultParallelThreshold));
  EXPECT_EQ(knobs::Int(empty, conf::kPlaceRecoveryMaxCrashes), 2);
  EXPECT_EQ(knobs::Uint64(empty, conf::kFaultSeed), 1u);
  EXPECT_DOUBLE_EQ(knobs::Double(empty, conf::kMemoryShareCache), 1.0);
  EXPECT_DOUBLE_EQ(knobs::Double(empty, conf::kMemoryHighWatermark), 0.90);
  EXPECT_EQ(knobs::String(empty, conf::kTempPrefix), "temp");
  EXPECT_EQ(knobs::String(empty, conf::kCacheReuse), "off");
  EXPECT_EQ(knobs::Choice(empty, conf::kCachePolicy), 0);
  EXPECT_TRUE(knobs::List(empty, conf::kTempPaths).empty());
  EXPECT_TRUE(knobs::CrashScript(empty, conf::kPlaceCrashAt).empty());
}

TEST(KnobsTest, GettersReadSetValues) {
  JobConf conf;
  conf.Set(conf::kShuffleFlushBytes, "0");
  conf.Set(conf::kFaultSeed, "18446744073709551615");
  conf.Set(conf::kCachePolicy, "cost");
  conf.Set(conf::kTempPaths, "/a,/b");
  conf.Set(conf::kPlaceCrashAt, "1:2,,3:0");
  ASSERT_TRUE(knobs::ValidateKnobs(conf).ok());
  EXPECT_EQ(knobs::Int(conf, conf::kShuffleFlushBytes), 0);
  EXPECT_EQ(knobs::Uint64(conf, conf::kFaultSeed), UINT64_MAX);
  EXPECT_EQ(knobs::Choice(conf, conf::kCachePolicy), 2);
  EXPECT_EQ(knobs::List(conf, conf::kTempPaths),
            (std::vector<std::string>{"/a", "/b"}));
  EXPECT_EQ(knobs::CrashScript(conf, conf::kPlaceCrashAt),
            (std::map<int, int>{{1, 2}, {3, 0}}));
}

TEST(KnobsTest, FaultSitesReadTheFamilyRowsPerSite) {
  EXPECT_TRUE(knobs::FaultSites(JobConf()).empty());
  JobConf conf;
  conf.Set(conf::kFaultSeed, "9");
  conf.Set("m3r.fault.dfs.read.prob", "0.25");
  conf.Set("m3r.fault.m3r.place.nth", "3");
  conf.Set("m3r.fault.m3r.place.limit", "1");
  conf.Set("m3r.fault.corrupt.spill.limit", "-1");
  ASSERT_TRUE(knobs::ValidateKnobs(conf).ok());
  const auto sites = knobs::FaultSites(conf);
  ASSERT_EQ(sites.size(), 3u);
  // A member left unset reads as its row's default.
  const FaultInjector::SiteConfig& read = sites.at("dfs.read");
  EXPECT_DOUBLE_EQ(read.probability, 0.25);
  EXPECT_EQ(read.nth, 0);
  EXPECT_EQ(read.limit, -1);
  const FaultInjector::SiteConfig& place = sites.at("m3r.place");
  EXPECT_DOUBLE_EQ(place.probability, 0.0);
  EXPECT_EQ(place.nth, 3);
  EXPECT_EQ(place.limit, 1);
  // Setting only the default still arms the site (it never fires).
  EXPECT_EQ(sites.count("corrupt.spill"), 1u);

  // A value the table rejects reads as the default; a site outside
  // kFaultSites is no member of the family.
  JobConf bad;
  bad.Set("m3r.fault.dfs.write.prob", "1.5");
  bad.Set("m3r.fault.no.such.site.prob", "1");
  ASSERT_FALSE(knobs::ValidateKnobs(bad).ok());
  const auto bad_sites = knobs::FaultSites(bad);
  ASSERT_EQ(bad_sites.size(), 1u);
  EXPECT_DOUBLE_EQ(bad_sites.at("dfs.write").probability, 0.0);
}

TEST(KnobsTest, EnumValuesAreInTheirConsumersOrder) {
  using memgov::EvictionPolicy;
  for (EvictionPolicy p :
       {EvictionPolicy::kLru, EvictionPolicy::kLfu, EvictionPolicy::kCost}) {
    JobConf conf;
    conf.Set(conf::kCachePolicy, memgov::EvictionPolicyName(p));
    EXPECT_EQ(knobs::Choice(conf, conf::kCachePolicy), static_cast<int>(p));
  }
  for (IntegrityMode m :
       {IntegrityMode::kOff, IntegrityMode::kDetect, IntegrityMode::kRepair}) {
    JobConf conf;
    conf.Set(conf::kIntegrityMode, IntegrityModeName(m));
    EXPECT_EQ(knobs::Choice(conf, conf::kIntegrityMode), static_cast<int>(m));
  }
}

TEST(KnobsTest, UnknownKeysNameTheNearestDeclaredKey) {
  Status st = ValidateOne("m3r.cache.polcy", "lru");
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("m3r.cache.polcy"), std::string::npos);
  EXPECT_NE(st.ToString().find(conf::kCachePolicy), std::string::npos)
      << st.ToString();

  st = ValidateOne("m3r.fault.dfs.reed.prob", "1");
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("dfs.read"), std::string::npos)
      << st.ToString();
  // A family's placeholder is not itself a key.
  EXPECT_FALSE(ValidateOne("m3r.fault.<site>.prob", "1").ok());
  // Only m3r.* keys are checked.
  EXPECT_TRUE(ValidateOne("mapred.whatever", "x").ok());
  EXPECT_TRUE(ValidateOne("myapp.m3r.knob", "x").ok());
}

TEST(KnobsTest, ValuesMustParseWholeAndLieInRange) {
  for (const char* fine : {"0", "1.0", "0.5", "1e-1"}) {
    EXPECT_TRUE(ValidateOne("m3r.fault.corrupt.spill.prob", fine).ok())
        << fine;
  }
  for (const char* bad :
       {"", " 1", "1 ", "0x1", "nan", "inf", "1.5", "-0.1"}) {
    EXPECT_FALSE(ValidateOne("m3r.fault.corrupt.spill.prob", bad).ok())
        << "'" << bad << "'";
  }
  EXPECT_TRUE(ValidateOne("m3r.fault.m3r.place.limit", "-1").ok());
  EXPECT_FALSE(ValidateOne("m3r.fault.m3r.place.limit", "-2").ok());
  EXPECT_FALSE(ValidateOne("m3r.fault.m3r.place.nth", "-1").ok());
  EXPECT_FALSE(ValidateOne(conf::kFaultSeed, "-1").ok());
  EXPECT_FALSE(ValidateOne(conf::kSubmissionPriority, "1001").ok());
  EXPECT_TRUE(ValidateOne(conf::kSubmissionPriority, "-1000").ok());
  EXPECT_FALSE(ValidateOne(conf::kJobMaxAttempts, "0").ok());
  EXPECT_FALSE(ValidateOne(conf::kForceHadoopEngine, "yes").ok());
  EXPECT_TRUE(ValidateOne(conf::kForceHadoopEngine, "1").ok());
}

TEST(KnobsTest, RetiredRowsAcceptOnlyTheirFormerDefault) {
  EXPECT_TRUE(ValidateOne(conf::kShufflePipeline, "on").ok());
  Status st = ValidateOne(conf::kShufflePipeline, "off");
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find(conf::kShuffleFlushBytes), std::string::npos);
  EXPECT_TRUE(ValidateOne("m3r.place.recovery", "replay").ok());
  EXPECT_FALSE(ValidateOne("m3r.place.recovery", "off").ok());
}

TEST(KnobsTest, InvalidValuesReadAsTheDefault) {
  // Readers that run ahead of validation (Submission::FromConf) see the
  // default; the conf itself is rejected where it is submitted.
  JobConf conf;
  conf.Set(conf::kSubmissionPriority, "urgent");
  EXPECT_EQ(knobs::Int(conf, conf::kSubmissionPriority), 0);
}

TEST(KnobsTest, EveryChaosScheduleOverrideValidates) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    chaos::ChaosOptions options;
    options.seed = seed;
    chaos::ChaosSchedule schedule(options);
    for (int job = 0; job < 8; ++job) {
      JobConf conf;
      for (const auto& [key, value] : schedule.JobOverrides(job)) {
        conf.Set(key, value);
      }
      Status st = knobs::ValidateKnobs(conf);
      EXPECT_TRUE(st.ok()) << schedule.Describe(job) << ": " << st.ToString();
    }
  }
}

/// Keys in README.md's knob tables: the backquoted m3r.* first cell of
/// each row under a "| Key | Meaning |" header.
std::set<std::string> ReadmeKnobKeys() {
  std::set<std::string> keys;
  for (const std::vector<std::string>& cells :
       readme::TableRows("| Key | Meaning |")) {
    if (cells[0].rfind("m3r.", 0) == 0) keys.insert(cells[0]);
  }
  return keys;
}

TEST(KnobsTest, ReadmeKnobTablesListExactlyTheLiveRows) {
  std::set<std::string> live;
  for (const knobs::Knob& row : knobs::Table()) {
    if (row.type != knobs::Type::kRetired) live.insert(row.key);
  }
  EXPECT_EQ(ReadmeKnobKeys(), live);
}

}  // namespace
}  // namespace m3r::api

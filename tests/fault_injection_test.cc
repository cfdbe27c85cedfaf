// Deterministic fault injection and the resilience layer built on it:
// seeded injector semantics, Hadoop task retry surviving injected task
// failures with byte-identical output (and a longer simulated makespan),
// M3R place-crash degradation that evicts exactly the dead place's cache
// blocks, job-level retry classification in JobClient, and checkpoint-based
// replay of a job sequence after an instance restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <set>

#include "api/engine.h"
#include "api/knobs.h"
#include "api/sequence_file.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

sim::ClusterSpec Cluster4x2() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

/// Sorted lines of every part file under `dir` (sorted so the comparison
/// is independent of partition count).
std::vector<std::string> ReadOutputLines(dfs::FileSystem& fs,
                                         const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  if (!files.ok()) return lines;
  for (const auto& f : *files) {
    if (f.is_directory || f.path.find("part-") == std::string::npos) continue;
    auto content = fs.ReadFile(f.path);
    EXPECT_TRUE(content.ok());
    std::string cur;
    for (char c : *content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Canonical record rendering of the sequence-file parts under `dir`:
/// sorted "key=value" strings (sequence files embed a random per-writer
/// sync marker, so raw bytes differ across runs even for identical data).
std::vector<std::string> ReadPartsCanonical(dfs::FileSystem& fs,
                                            const std::string& dir) {
  std::vector<std::string> records;
  auto files = fs.ListStatus(dir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  if (!files.ok()) return records;
  for (const auto& f : *files) {
    if (f.is_directory || f.length == 0) continue;
    if (f.path.find("part-") == std::string::npos) continue;
    auto pairs = api::ReadSequenceFile(fs, f.path);
    EXPECT_TRUE(pairs.ok()) << f.path;
    if (!pairs.ok()) continue;
    for (const auto& [k, v] : *pairs) {
      records.push_back(k->ToString() + "=" + v->ToString());
    }
  }
  std::sort(records.begin(), records.end());
  return records;
}

// --- Injector semantics ---

TEST(FaultInjectorTest, ProbabilityDecisionsAreKeyedNotOrdered) {
  FaultInjector::SiteConfig cfg;
  cfg.probability = 0.5;
  FaultInjector forward(42);
  FaultInjector backward(42);
  forward.Configure("site", cfg);
  backward.Configure("site", cfg);

  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) keys.push_back("key" + std::to_string(i));

  std::map<std::string, bool> a;
  for (const auto& k : keys) a[k] = forward.ShouldFail("site", k);
  std::map<std::string, bool> b;
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    b[*it] = backward.ShouldFail("site", *it);
  }
  // Decisions are a pure function of (seed, site, key): evaluation order —
  // i.e. thread interleaving — cannot change which operations fail.
  EXPECT_EQ(a, b);
  int failures = 0;
  for (const auto& [k, v] : a) failures += v ? 1 : 0;
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, static_cast<int>(keys.size()));

  // A different seed draws a different failure set.
  FaultInjector other(43);
  other.Configure("site", cfg);
  std::map<std::string, bool> c;
  for (const auto& k : keys) c[k] = other.ShouldFail("site", k);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, NthFiresExactlyOnce) {
  FaultInjector inj(1);
  FaultInjector::SiteConfig cfg;
  cfg.nth = 3;
  inj.Configure("site", cfg);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(inj.ShouldFail("site", "k" + std::to_string(i)), i == 3) << i;
  }
  EXPECT_EQ(inj.InjectedCount("site"), 1);
}

TEST(FaultInjectorTest, LimitCapsInjectionsSoRetriesSucceed) {
  FaultInjector inj(1);
  FaultInjector::SiteConfig cfg;
  cfg.probability = 1.0;
  cfg.limit = 2;
  inj.Configure("site", cfg);
  EXPECT_FALSE(inj.Check("site", "a").ok());
  EXPECT_FALSE(inj.Check("site", "b").ok());
  EXPECT_TRUE(inj.Check("site", "c").ok());
  EXPECT_EQ(inj.InjectedCount(), 2);
}

/// The job's injector as both engines build it: the seed knob and the
/// m3r.fault.<site>.* family of a conf the knob table accepted.
std::shared_ptr<FaultInjector> InjectorFromConf(
    const std::map<std::string, std::string>& raw) {
  api::JobConf conf;
  for (const auto& [key, value] : raw) conf.Set(key, value);
  Status valid = api::knobs::ValidateKnobs(conf);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  return FaultInjector::FromSites(
      api::knobs::Uint64(conf, api::conf::kFaultSeed),
      api::knobs::FaultSites(conf));
}

TEST(FaultInjectorTest, FromConfBuildsOnlyWhenFaultKeysPresent) {
  EXPECT_EQ(InjectorFromConf({}), nullptr);
  EXPECT_EQ(InjectorFromConf({{"mapred.reduce.tasks", "4"}}), nullptr);
  EXPECT_EQ(InjectorFromConf({{"m3r.fault.seed", "9"}}), nullptr);

  std::map<std::string, std::string> raw = {
      {"m3r.fault.seed", "9"},
      {"m3r.fault.dfs.read.prob", "1.0"},
  };
  auto inj = InjectorFromConf(raw);
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->seed(), 9u);
  EXPECT_TRUE(inj->Armed());
  Status st = inj->Check("dfs.read", "/some/path");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsRetriable());
  // Unconfigured sites never fire.
  EXPECT_TRUE(inj->Check("dfs.write", "/some/path").ok());
}

// --- Corruption sites (the integrity layer's fault model) ---

TEST(CorruptionSiteTest, BitFlipIsPureInSeedSiteAndKey) {
  FaultInjector::SiteConfig cfg;
  cfg.probability = 1.0;
  auto corrupt_with = [&](uint64_t seed, const std::string& key) {
    FaultInjector inj(seed);
    inj.Configure(kCorruptDfsBlock, cfg);
    std::string data(64, 'x');
    EXPECT_TRUE(inj.MaybeCorrupt(kCorruptDfsBlock, key, &data));
    return data;
  };
  const std::string original(64, 'x');
  std::string a = corrupt_with(5, "/f#0@1");
  // Byte-reproducible: the same (seed, site, key) flips the same bit.
  EXPECT_EQ(a, corrupt_with(5, "/f#0@1"));
  // Exactly one bit differs from the pristine payload.
  int flipped_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    flipped_bits += __builtin_popcount(
        static_cast<unsigned char>(a[i] ^ original[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  // Different keys (and seeds) draw different flips.
  std::set<std::string> variants;
  for (int k = 0; k < 6; ++k) {
    variants.insert(corrupt_with(5, "key" + std::to_string(k)));
  }
  variants.insert(corrupt_with(6, "/f#0@1"));
  EXPECT_GT(variants.size(), 1u);
}

TEST(CorruptionSiteTest, CopyVariantOnlyCopiesWhenFiring) {
  FaultInjector inj(5);
  FaultInjector::SiteConfig cfg;
  cfg.probability = 1.0;
  cfg.limit = 1;
  inj.Configure(kCorruptSpill, cfg);
  const std::string in = "spill-segment-payload";
  std::string out = "sentinel";
  EXPECT_TRUE(inj.MaybeCorruptCopy(kCorruptSpill, "m0/p0/a0", in, &out));
  EXPECT_EQ(out.size(), in.size());
  EXPECT_NE(out, in);
  // The limit is exhausted: no fire, and *out is left untouched (the hot
  // path stays zero-copy).
  std::string out2 = "sentinel";
  EXPECT_FALSE(inj.MaybeCorruptCopy(kCorruptSpill, "m1/p0/a0", in, &out2));
  EXPECT_EQ(out2, "sentinel");
  EXPECT_EQ(inj.InjectedCount(kCorruptSpill), 1);
  // Empty payloads have no bit to flip and are never corrupted.
  FaultInjector inj2(5);
  FaultInjector::SiteConfig always;
  always.probability = 1.0;
  inj2.Configure(kCorruptSpill, always);
  std::string empty;
  EXPECT_FALSE(inj2.MaybeCorrupt(kCorruptSpill, "k", &empty));
  EXPECT_TRUE(empty.empty());
}

TEST(IntegrityContextTest, FromConfBuildsOnlyWhenRelevant) {
  // Both engines build the context the same way: the m3r.integrity.mode
  // knob of a conf the knob table accepted, and the job's fault injector.
  auto from_conf = [](const std::map<std::string, std::string>& raw) {
    api::JobConf conf;
    for (const auto& [key, value] : raw) conf.Set(key, value);
    return IntegrityContext::ForJob(
        static_cast<IntegrityMode>(
            api::knobs::Choice(conf, api::conf::kIntegrityMode)),
        InjectorFromConf(raw));
  };
  // No integrity keys, no corruption sites: the common case stays free.
  EXPECT_EQ(from_conf({}), nullptr);

  // Mode off but a corruption site armed: a disabled context is still
  // built so the injected flips escape honestly (pre-integrity behavior).
  auto off = from_conf({{"m3r.fault.corrupt.dfs.block.prob", "1.0"}});
  ASSERT_NE(off, nullptr);
  EXPECT_FALSE(off->enabled());

  auto detect = from_conf({{api::conf::kIntegrityMode, "detect"}});
  ASSERT_NE(detect, nullptr);
  EXPECT_TRUE(detect->enabled());
  EXPECT_FALSE(detect->repair());

  auto repair = from_conf({{api::conf::kIntegrityMode, "repair"}});
  ASSERT_NE(repair, nullptr);
  EXPECT_TRUE(repair->repair());

  // An unknown mode never gets this far: the knob table rejects it before
  // any output is claimed, on both engines
  // (M3REngineTest.BadConfValuesFailNamingTheKeyBeforeClaimingOutput).
}

TEST(IntegrityContextTest, ReceiveCheckedModeSemantics) {
  auto make_ctx = [](IntegrityMode mode) {
    auto fault = std::make_shared<FaultInjector>(9);
    FaultInjector::SiteConfig cfg;
    cfg.probability = 1.0;
    fault->Configure(kCorruptChannelFrame, cfg);
    auto ctx = std::make_shared<IntegrityContext>();
    ctx->mode = mode;
    ctx->fault = std::move(fault);
    return ctx;
  };
  const std::string payload = "frame-payload-0123456789";

  {  // detect: the mismatch surfaces as retriable DataLoss.
    auto ctx = make_ctx(IntegrityMode::kDetect);
    uint32_t crc = StampCrc(ctx.get(), payload);
    std::string scratch;
    const std::string* served = nullptr;
    Status st = ReceiveChecked(ctx.get(), kCorruptChannelFrame, "lane", crc,
                               payload, &scratch, &served);
    EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
    EXPECT_TRUE(st.IsRetriable());
    EXPECT_EQ(ctx->counters->detected.load(), 1);
    EXPECT_EQ(ctx->counters->repaired.load(), 0);
  }
  {  // repair: detected, then healed from the producer's pristine copy.
    auto ctx = make_ctx(IntegrityMode::kRepair);
    uint32_t crc = StampCrc(ctx.get(), payload);
    std::string scratch;
    const std::string* served = nullptr;
    Status st = ReceiveChecked(ctx.get(), kCorruptChannelFrame, "lane", crc,
                               payload, &scratch, &served);
    EXPECT_TRUE(st.ok()) << st.ToString();
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(*served, payload);
    EXPECT_EQ(ctx->counters->detected.load(), 1);
    EXPECT_EQ(ctx->counters->repaired.load(), 1);
  }
  {  // off: the corrupted copy is served — the flip escapes silently.
    auto ctx = make_ctx(IntegrityMode::kOff);
    std::string scratch;
    const std::string* served = nullptr;
    Status st = ReceiveChecked(ctx.get(), kCorruptChannelFrame, "lane",
                               /*crc=*/0, payload, &scratch, &served);
    EXPECT_TRUE(st.ok());
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served, &scratch);
    EXPECT_NE(*served, payload);
    EXPECT_EQ(ctx->counters->detected.load(), 0);
  }
  {  // A clean hop serves the payload itself, zero-copy.
    auto ctx = std::make_shared<IntegrityContext>();
    ctx->mode = IntegrityMode::kDetect;
    uint32_t crc = StampCrc(ctx.get(), payload);
    std::string scratch;
    const std::string* served = nullptr;
    Status st = ReceiveChecked(ctx.get(), kCorruptChannelFrame, "lane", crc,
                               payload, &scratch, &served);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(served, &payload);
    EXPECT_GT(ctx->counters->bytes_checksummed.load(), 0);
  }
}

// --- Retry classification: which failures are worth another attempt ---

TEST(RetryClassificationTest, TableOfRetriableCodes) {
  // Transient conditions — a fresh attempt may succeed.
  EXPECT_TRUE(IsRetriable(StatusCode::kIOError));
  EXPECT_TRUE(IsRetriable(StatusCode::kAborted));
  EXPECT_TRUE(IsRetriable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetriable(StatusCode::kDataLoss));
  // Deterministic failures — retrying would just fail again.
  EXPECT_FALSE(IsRetriable(StatusCode::kOk));
  EXPECT_FALSE(IsRetriable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetriable(StatusCode::kAlreadyExists));
  EXPECT_FALSE(IsRetriable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetriable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(IsRetriable(StatusCode::kUnimplemented));
  EXPECT_FALSE(IsRetriable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetriable(StatusCode::kCancelled));
}

// --- Hadoop task retry (parameterized over injection sites) ---

struct TaskFaultCase {
  const char* name;
  const char* site;
  const char* failure_metric;
};

// Without this, gtest prints the raw pointer bytes, so the listed test name
// would change with every address-space layout.
void PrintTo(const TaskFaultCase& c, std::ostream* os) { *os << c.site; }

class HadoopTaskFaultTest : public ::testing::TestWithParam<TaskFaultCase> {};

TEST_P(HadoopTaskFaultTest, RetriesSurviveInjectedFailures) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 5, 17).ok());

  hadoop::HadoopEngine gold_engine(fs,
                                   hadoop::HadoopEngineOptions{Cluster4x2(),
                                                               0});
  auto gold = gold_engine.Submit(
      workloads::MakeWordCountJob("/in", "/gold", 3, true));
  ASSERT_TRUE(gold.ok()) << gold.status.ToString();

  hadoop::HadoopEngine engine(fs,
                              hadoop::HadoopEngineOptions{Cluster4x2(), 0});
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set("m3r.fault.seed", "9");
  job.Set(std::string("m3r.fault.") + GetParam().site + ".prob", "0.5");
  // At p=0.5 a task exhausting the default 4 attempts is too likely; a
  // deeper attempt budget keeps the run deterministic but survivable.
  job.Set(api::conf::kMapMaxAttempts, "10");
  job.Set(api::conf::kReduceMaxAttempts, "10");
  auto result = engine.Submit(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // The seeded injector failed at least two attempts, all retried.
  EXPECT_GE(result.metrics.at(GetParam().failure_metric), 2);
  EXPECT_GE(result.metrics.at("injected_faults"), 2);
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
  // Recovery is exact: the output is byte-identical to the fault-free run.
  EXPECT_EQ(ReadOutputLines(*fs, "/out"), ReadOutputLines(*fs, "/gold"));
  // But not free: re-executed attempts lengthen the simulated makespan.
  EXPECT_GT(result.sim_seconds, gold.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, HadoopTaskFaultTest,
    ::testing::Values(
        TaskFaultCase{"MapTask", "hadoop.map", "map_task_failures"},
        TaskFaultCase{"ReduceTask", "hadoop.reduce",
                      "reduce_task_failures"}),
    [](const ::testing::TestParamInfo<TaskFaultCase>& info) {
      return info.param.name;
    });

/// One WordCount with `reducers` reducers under a 0.5 fault probability
/// at `site`, with and without speculative execution; the two outputs must
/// match. Both runs do the same counted work under the same deterministic
/// fault schedule, so their sims differ only by what speculation changed.
std::pair<api::JobResult, api::JobResult> RunWithAndWithoutSpeculation(
    const std::string& site, int reducers) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  EXPECT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 5, 17).ok());
  auto run = [&](const char* out, bool speculative) {
    hadoop::HadoopEngine engine(
        fs, hadoop::HadoopEngineOptions{Cluster4x2(), 0});
    api::JobConf job =
        workloads::MakeWordCountJob("/in", out, reducers, true);
    job.Set("m3r.fault.seed", "9");
    job.Set("m3r.fault." + site + ".prob", "0.5");
    job.Set(api::conf::kMapMaxAttempts, "10");
    job.Set(api::conf::kReduceMaxAttempts, "10");
    // Set in both runs: the job file's size enters the submit charge, so
    // the two confs differ only in this value.
    job.Set(api::conf::kSpeculativeExecution, speculative ? "true" : "false");
    return engine.Submit(job);
  };
  auto plain = run("/out-plain", false);
  auto spec = run("/out-spec", true);
  EXPECT_TRUE(plain.ok()) << plain.status.ToString();
  EXPECT_TRUE(spec.ok()) << spec.status.ToString();
  EXPECT_EQ(ReadOutputLines(*fs, "/out-plain"),
            ReadOutputLines(*fs, "/out-spec"));
  // Backups are booked after every task's own attempts, so they can only
  // help the makespan.
  EXPECT_LE(spec.sim_seconds, plain.sim_seconds);
  return {std::move(plain), std::move(spec)};
}

TEST(HadoopFaultTest, SpeculationBeatsRetryChainOnStragglers) {
  auto [plain, spec] = RunWithAndWithoutSpeculation("hadoop.map", 3);
  // Backup copies actually launched for the retry-delayed stragglers,
  // and one finished before its task's retry chain…
  EXPECT_GE(spec.metrics.at("speculative_map_tasks"), 1);
  EXPECT_GE(spec.metrics.at("speculative_map_wins"), 1);
  EXPECT_EQ(plain.metrics.count("speculative_map_wins"), 0u);
  // …which shortens the map phase.
  EXPECT_LT(spec.time_breakdown.at("map_phase"),
            plain.time_breakdown.at("map_phase"));
}

TEST(HadoopFaultTest, SpeculationBeatsRetryChainOnStragglingReducers) {
  auto [plain, spec] = RunWithAndWithoutSpeculation("hadoop.reduce", 4);
  EXPECT_GE(spec.metrics.at("speculative_reduce_tasks"), 1);
  EXPECT_GE(spec.metrics.at("speculative_reduce_wins"), 1);
  EXPECT_LT(spec.time_breakdown.at("reduce_phase"),
            plain.time_breakdown.at("reduce_phase"));
}

// --- M3R place crash: graceful degradation ---

// Seed chosen (with the same pure decision function the engine uses) so
// that at prob 0.25 exactly one of the four places dies.
int FindDeadPlace(uint64_t seed, double prob, int num_places) {
  FaultInjector probe(seed);
  FaultInjector::SiteConfig cfg;
  cfg.probability = prob;
  probe.Configure("m3r.place", cfg);
  int dead = -1;
  int count = 0;
  for (int p = 0; p < num_places; ++p) {
    if (probe.ShouldFail("m3r.place", std::to_string(p))) {
      dead = p;
      ++count;
    }
  }
  return count == 1 ? dead : -1;
}

uint64_t SeedKillingOnePlace(double prob, int num_places) {
  for (uint64_t seed = 1; seed < 1000; ++seed) {
    if (FindDeadPlace(seed, prob, num_places) >= 0) return seed;
  }
  return 0;
}

TEST(M3RPlaceCrashTest, CrashEvictsOnlyDeadPlaceAndFailsJobCleanly) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 3, 7).ok());
  engine::M3REngine m3r(fs, engine::M3REngineOptions{Cluster4x2()});

  // Warm the cache: one output block per place (4 reducers, 4 places).
  auto warm = m3r.Submit(workloads::MakeWordCountJob("/in", "/warm", 4,
                                                     true));
  ASSERT_TRUE(warm.ok()) << warm.status.ToString();

  const double kProb = 0.25;
  const uint64_t seed = SeedKillingOnePlace(kProb, 4);
  ASSERT_NE(seed, 0u);
  const int dead = FindDeadPlace(seed, kProb, 4);

  // Snapshot where /warm's blocks live before the crash.
  struct Snap {
    std::string path;
    int place;
  };
  std::vector<Snap> warm_blocks;
  for (const std::string& f : m3r.cache().FilesUnder("/warm")) {
    auto blocks = m3r.cache().GetFileBlocks(f);
    ASSERT_TRUE(blocks.ok());
    for (const auto& b : *blocks) warm_blocks.push_back({f, b.info.place});
  }
  ASSERT_EQ(warm_blocks.size(), 4u);

  api::JobConf job = workloads::MakeWordCountJob("/in", "/crashed", 2, true);
  job.Set("m3r.fault.seed", std::to_string(seed));
  job.Set("m3r.fault.m3r.place.prob", std::to_string(kProb));
  // Pin the pre-recovery contract: crash => clean whole-job failure.
  job.Set(api::conf::kPlaceRecoveryMaxCrashes, "0");
  auto result = m3r.Submit(job);
  EXPECT_FALSE(result.ok());
  // A place crash is a retriable infrastructure failure, not a job bug.
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  EXPECT_TRUE(result.status.IsRetriable());
  // No partial commit survives.
  EXPECT_FALSE(fs->Exists("/crashed/_SUCCESS"));
  EXPECT_FALSE(fs->Exists("/crashed"));
  EXPECT_GT(result.metrics.at("cache_evicted_by_crash_blocks"), 0);

  // Exactly the dead place's blocks are gone; every other block survives.
  for (const Snap& s : warm_blocks) {
    bool cached = m3r.cache().GetBlock(s.path, "0").has_value();
    EXPECT_EQ(cached, s.place != dead) << s.path << " @place " << s.place;
  }

  // The instance degrades instead of dying: the next job re-reads the
  // evicted data from the DFS and produces the same answer as before.
  auto after = m3r.Submit(workloads::MakeWordCountJob("/in", "/after", 2,
                                                      true));
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_EQ(ReadOutputLines(*fs, "/after"), ReadOutputLines(*fs, "/warm"));
}

// --- Job-level retry classification in JobClient ---

TEST(JobClientRetryTest, RetriableFailuresResubmitNonRetriableDoNot) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 32 * 1024, 2, 5).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{Cluster4x2()});
  api::JobClient client(m3r);

  const double kProb = 0.25;
  const uint64_t seed = SeedKillingOnePlace(kProb, 4);
  ASSERT_NE(seed, 0u);

  // The place crash fires on every submission (each Submit re-derives the
  // same decisions), so the client retries until the attempt budget runs
  // out: one FAILED notification per attempt.
  api::JobConf flaky = workloads::MakeWordCountJob("/in", "/flaky", 2, true);
  flaky.Set("m3r.fault.seed", std::to_string(seed));
  flaky.Set("m3r.fault.m3r.place.prob", std::to_string(kProb));
  flaky.Set(api::conf::kPlaceRecoveryMaxCrashes, "0");
  flaky.Set(api::conf::kJobMaxAttempts, "3");
  flaky.Set(api::conf::kJobRetryBackoffMs, "1");
  flaky.Set(api::conf::kJobEndNotificationUrl, "http://observer/cb");
  auto result = client.SubmitJob(flaky);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  ASSERT_EQ(m3r->Notifications().size(), 3u);
  for (const std::string& n : m3r->Notifications()) {
    EXPECT_NE(n.find("status=FAILED"), std::string::npos) << n;
  }

  // A non-retriable failure (missing input) is not resubmitted.
  api::JobConf bad = workloads::MakeWordCountJob("/missing", "/nr", 2, true);
  bad.Set(api::conf::kJobMaxAttempts, "3");
  bad.Set(api::conf::kJobRetryBackoffMs, "1");
  bad.Set(api::conf::kJobEndNotificationUrl, "http://observer/cb");
  auto nr = client.SubmitJob(bad);
  EXPECT_FALSE(nr.ok());
  EXPECT_TRUE(nr.status.IsNotFound()) << nr.status.ToString();
  EXPECT_EQ(m3r->Notifications().size(), 4u);
}

// --- Integrity detect mode: fail loudly instead of committing garbage ---

TEST(IntegrityModeTest, DetectModeFailsWithDataLossInsteadOfCommitting) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 3, 17).ok());
  auto engine = std::make_shared<hadoop::HadoopEngine>(
      fs, hadoop::HadoopEngineOptions{Cluster4x2(), 0});
  api::JobClient client(engine);

  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set(api::conf::kIntegrityMode, "detect");
  job.Set("m3r.fault.seed", "9");
  job.Set("m3r.fault.corrupt.spill.nth", "1");
  // Corruption hop keys are attempt-scoped, so a task re-attempt would
  // re-fetch clean bytes and heal; force single attempts to observe the
  // raw detection as a job failure.
  job.Set(api::conf::kMapMaxAttempts, "1");
  job.Set(api::conf::kReduceMaxAttempts, "1");
  job.Set(api::conf::kJobEndNotificationUrl, "http://observer/cb");
  auto result = client.SubmitJob(job);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status.IsDataLoss()) << result.status.ToString();
  EXPECT_TRUE(result.status.IsRetriable());
  // Nothing wrong was committed: no output directory, no _SUCCESS.
  EXPECT_FALSE(fs->Exists("/out/_SUCCESS"));
  EXPECT_FALSE(fs->Exists("/out"));
  EXPECT_GE(result.metrics.at("integrity_detected"), 1);
  EXPECT_EQ(result.metrics.at("integrity_repaired"), 0);
  // The FAILED notification says why, for external retry classification.
  ASSERT_EQ(engine->Notifications().size(), 1u);
  EXPECT_NE(engine->Notifications()[0].find("status=FAILED"),
            std::string::npos);
  EXPECT_NE(engine->Notifications()[0].find("reason=DataLoss"),
            std::string::npos);
}

TEST(IntegrityModeTest, HadoopTaskReattemptHealsOneShotCorruption) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 3, 17).ok());
  hadoop::HadoopEngine gold_engine(fs,
                                   hadoop::HadoopEngineOptions{Cluster4x2(),
                                                               0});
  auto gold = gold_engine.Submit(
      workloads::MakeWordCountJob("/in", "/gold", 3, true));
  ASSERT_TRUE(gold.ok()) << gold.status.ToString();

  // One corruption fires (nth=1). Detect mode fails that task attempt with
  // DataLoss — which is retriable at task granularity, and the re-attempt's
  // hop keys carry the new attempt id, so the re-fetch is clean.
  hadoop::HadoopEngine engine(fs,
                              hadoop::HadoopEngineOptions{Cluster4x2(), 0});
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set(api::conf::kIntegrityMode, "detect");
  job.Set("m3r.fault.seed", "9");
  job.Set("m3r.fault.corrupt.spill.nth", "1");
  auto result = engine.Submit(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.at("integrity_detected"), 1);
  int64_t task_failures = 0;
  if (result.metrics.count("map_task_failures")) {
    task_failures += result.metrics.at("map_task_failures");
  }
  if (result.metrics.count("reduce_task_failures")) {
    task_failures += result.metrics.at("reduce_task_failures");
  }
  EXPECT_GE(task_failures, 1);
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
  EXPECT_EQ(ReadOutputLines(*fs, "/out"), ReadOutputLines(*fs, "/gold"));
}

TEST(IntegrityModeTest, M3RCacheCorruptionEvictsAndJobRetryHeals) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  // A single input file: the first detection evicts the whole cached path,
  // so the retry's re-read comes entirely from the DFS.
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 60 * 1024, 1, 3).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{Cluster4x2()});
  api::JobClient client(m3r);

  // The warm job runs with integrity on so its cache fills are stamped —
  // blocks cached by a checksum-less job carry no CRC and cannot be
  // verified later.
  api::JobConf warm_job = workloads::MakeWordCountJob("/in", "/warm", 2,
                                                      true);
  warm_job.Set(api::conf::kIntegrityMode, "detect");
  auto warm = client.SubmitJob(warm_job);
  ASSERT_TRUE(warm.ok()) << warm.status.ToString();

  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 2, true);
  job.Set(api::conf::kIntegrityMode, "detect");
  job.Set("m3r.fault.seed", "9");
  job.Set("m3r.fault.corrupt.cache.block.prob", "1.0");
  job.Set(api::conf::kJobMaxAttempts, "2");
  job.Set(api::conf::kJobRetryBackoffMs, "1");
  job.Set(api::conf::kJobEndNotificationUrl, "http://observer/cb");
  auto result = client.SubmitJob(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  // Attempt 1 hit the poisoned cache and failed with DataLoss; attempt 2
  // missed (the path was evicted), re-read the DFS, and succeeded.
  auto notes = m3r->Notifications();  // warm job set no notification URL
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_NE(notes[0].find("status=FAILED"), std::string::npos) << notes[0];
  EXPECT_NE(notes[0].find("reason=DataLoss"), std::string::npos) << notes[0];
  EXPECT_NE(notes[1].find("status=SUCCEEDED"), std::string::npos) << notes[1];
  EXPECT_GT(result.metrics.at("cache_miss_splits"), 0);
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
  EXPECT_EQ(ReadOutputLines(*fs, "/out"), ReadOutputLines(*fs, "/warm"));
}

// --- Checkpointing: replay a sequence after an instance restart ---

TEST(M3RCheckpointTest, RestartedInstanceReplaysSequenceFromCheckpoints) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  ASSERT_TRUE(workloads::GenerateMicroInput(*fs, "/micro", 400, 64, 4, 3,
                                            false)
                  .ok());
  engine::M3REngineOptions opts{Cluster4x2()};
  auto with_ckpt = [](api::JobConf job) {
    job.Set(api::conf::kCacheCheckpoint, "tempout");
    return job;
  };
  api::JobConf j1 =
      with_ckpt(workloads::MakeMicroJob("/micro", "/temp-s1", 4, 0.0, 1));
  api::JobConf j2 =
      with_ckpt(workloads::MakeMicroJob("/temp-s1", "/temp-s2", 4, 0.0, 2));

  std::vector<std::string> final_a;
  {
    engine::M3REngine a(fs, opts);
    ASSERT_TRUE(a.Submit(j1).ok());
    ASSERT_TRUE(a.Submit(j2).ok());
    api::JobConf j3 = with_ckpt(
        workloads::MakeMicroJob("/temp-s2", "/final-a", 4, 0.0, 3));
    auto r3 = a.Submit(j3);
    ASSERT_TRUE(r3.ok()) << r3.status.ToString();
    a.WaitForCheckpoints();
    final_a = ReadPartsCanonical(*fs, "/final-a");
    ASSERT_FALSE(final_a.empty());
    // The temporary outputs were spilled and committed with markers; the
    // materialized output needs no checkpoint.
    EXPECT_TRUE(fs->Exists(
        std::string(engine::M3REngine::kCheckpointRoot) +
        "/temp-s1/_DONE"));
    EXPECT_TRUE(fs->Exists(
        std::string(engine::M3REngine::kCheckpointRoot) +
        "/temp-s2/_DONE"));
    EXPECT_FALSE(fs->Exists(
        std::string(engine::M3REngine::kCheckpointRoot) +
        "/final-a/_DONE"));
  }  // Instance "crashes": the cache dies with it.

  // A fresh instance replays the same sequence. The first two jobs are
  // recognized as materialized (checkpointed) and skipped; the third runs
  // against the restored cache.
  engine::M3REngine b(fs, opts);
  auto r1 = b.Submit(j1);
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.metrics.at("recovered_from_checkpoint"), 1);
  EXPECT_EQ(r1.metrics.count("map_tasks"), 0u);  // no tasks ran

  auto r2 = b.Submit(j2);
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.metrics.at("recovered_from_checkpoint"), 1);

  api::JobConf j3 = with_ckpt(
      workloads::MakeMicroJob("/temp-s2", "/final-b", 4, 0.0, 3));
  auto r3 = b.Submit(j3);
  ASSERT_TRUE(r3.ok()) << r3.status.ToString();
  EXPECT_EQ(r3.metrics.count("recovered_from_checkpoint"), 0u);
  EXPECT_GT(r3.metrics.at("cache_hit_splits"), 0);
  // The replayed sequence lands on the same records as the original run.
  EXPECT_EQ(ReadPartsCanonical(*fs, "/final-b"), final_a);
}

TEST(M3RCheckpointTest, BadPolicyValueIsRejected) {
  auto fs = dfs::MakeSimDfs(2, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 8 * 1024, 1, 3).ok());
  engine::M3REngine m3r(fs, engine::M3REngineOptions{Cluster4x2()});
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 1, true);
  job.Set(api::conf::kCacheCheckpoint, "sometimes");
  auto result = m3r.Submit(job);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status.ToString();
}

}  // namespace
}  // namespace m3r

// Deterministic chaos soak (DESIGN.md §13): seeded ChaosSchedule scenarios
// compose fault injection, eviction pressure, cancellation, and watchdog
// budgets, and both engines must still produce byte-identical output. A
// failing seed is replayed exactly: M3R_CHAOS_SEEDS=<seed> ./chaos_soak_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/class_registry.h"
#include "common/chaos.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "m3r/server.h"
#include "serialize/writable.h"
#include "workloads/matrix_gen.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r {
namespace {

sim::ClusterSpec TestCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

/// Seeds under test: the check-chaos matrix sets M3R_CHAOS_SEEDS; a bare
/// run covers a small default matrix; a repro run names the one seed.
std::vector<uint64_t> SoakSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("M3R_CHAOS_SEEDS");
  std::string raw = env != nullptr ? env : "1,2,3";
  std::string cur;
  for (char c : raw + ",") {
    if (c == ',') {
      if (!cur.empty()) seeds.push_back(std::strtoull(cur.c_str(), nullptr, 10));
      cur.clear();
    } else if (c != ' ') {
      cur.push_back(c);
    }
  }
  return seeds;
}

chaos::ChaosSchedule ScheduleFor(uint64_t seed) {
  chaos::ChaosOptions options;
  options.seed = seed;
  options.intensity = 0.7;
  return chaos::ChaosSchedule(options);
}

void ApplyChaos(api::JobConf& conf, const chaos::ChaosSchedule& schedule,
                int job_index) {
  for (const auto& [key, value] : schedule.JobOverrides(job_index)) {
    conf.Set(key, value);
  }
}

/// Submits `pristine` under chaos. Fault decisions are a pure function of
/// the conf, so resubmitting an identical conf replays identical faults;
/// real transient faults differ per attempt, which the harness models by
/// drawing each attempt's overrides from a different schedule stream. The
/// last attempt runs pristine: chaos must perturb execution, never make
/// success impossible — so a seed can only fail on a genuine divergence.
api::JobResult SubmitWithChaos(api::JobClient& client,
                               const api::JobConf& pristine,
                               const chaos::ChaosSchedule& schedule,
                               int job_index) {
  constexpr int kChaoticAttempts = 2;
  api::JobResult result;
  for (int attempt = 0; attempt < kChaoticAttempts; ++attempt) {
    api::JobConf job = pristine;
    ApplyChaos(job, schedule, job_index + 97 * attempt);
    result = client.SubmitJob(job);
    if (result.ok()) return result;
    // Chaos may only produce retriable failures; anything else is a bug.
    EXPECT_TRUE(result.status.IsRetriable())
        << schedule.Describe(job_index + 97 * attempt) << ": "
        << result.status.ToString();
  }
  return client.SubmitJob(pristine);
}

/// Reads every part file under `dir` and returns sorted lines.
std::vector<std::string> ReadOutputLines(dfs::FileSystem& fs,
                                         const std::string& dir) {
  std::vector<std::string> lines;
  auto files = fs.ListStatus(dir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  if (!files.ok()) return lines;
  for (const auto& f : *files) {
    if (f.is_directory) continue;
    if (f.path.find("part-") == std::string::npos) continue;
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

/// Sorted part-file names under `dir` — both engines must produce the
/// same file layout, not just the same aggregate content.
std::vector<std::string> PartFileNames(dfs::FileSystem& fs,
                                       const std::string& dir) {
  std::vector<std::string> names;
  auto files = fs.ListStatus(dir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  if (!files.ok()) return names;
  for (const auto& f : *files) {
    if (f.is_directory) continue;
    if (f.path.find("part-") == std::string::npos) continue;
    names.push_back(f.path);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// WordCount under chaos: both engines, byte-identical text output.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, WordCountByteIdenticalAcrossEngines) {
  for (uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    chaos::ChaosSchedule schedule = ScheduleFor(seed);

    auto fs_h = dfs::MakeSimDfs(4, 16 * 1024);
    auto fs_m = dfs::MakeSimDfs(4, 16 * 1024);
    ASSERT_TRUE(
        workloads::GenerateText(*fs_h, "/in", 120 * 1024, 4, seed).ok());
    ASSERT_TRUE(
        workloads::GenerateText(*fs_m, "/in", 120 * 1024, 4, seed).ok());

    auto hadoop = std::make_shared<hadoop::HadoopEngine>(
        fs_h, hadoop::HadoopEngineOptions{TestCluster(), 0});
    auto m3r = std::make_shared<engine::M3REngine>(
        fs_m, engine::M3REngineOptions{TestCluster()});
    api::JobClient hadoop_client(hadoop);
    api::JobClient m3r_client(m3r);

    api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3,
                                                   /*immutable_output=*/true);

    // Scenario action: a sacrificial duplicate is cancelled mid-run; the
    // engine must stay healthy for the real submission that follows.
    if (schedule.CancellationArmed()) {
      api::JobConf doomed = workloads::MakeWordCountJob(
          "/in", "/out-doomed", 3, /*immutable_output=*/true);
      api::JobHandle dh = m3r->SubmitAsync(doomed);
      dh.Cancel();
      dh.Wait();  // outcome irrelevant: success or cancel both leave the
                  // engine usable — that is what the next submit asserts.
    }

    api::JobResult hr = SubmitWithChaos(hadoop_client, job, schedule, 0);
    ASSERT_TRUE(hr.ok()) << schedule.Describe(0) << ": "
                         << hr.status.ToString();
    api::JobResult mr = SubmitWithChaos(m3r_client, job, schedule, 0);
    ASSERT_TRUE(mr.ok()) << schedule.Describe(0) << ": "
                         << mr.status.ToString();

    auto hadoop_lines = ReadOutputLines(*fs_h, "/out");
    auto m3r_lines = ReadOutputLines(*fs_m, "/out");
    ASSERT_FALSE(hadoop_lines.empty()) << schedule.Describe(0);
    EXPECT_EQ(hadoop_lines, m3r_lines) << schedule.Describe(0);
    EXPECT_TRUE(fs_h->Exists("/out/_SUCCESS"));
    EXPECT_TRUE(fs_m->Exists("/out/_SUCCESS"));
  }
}

// ---------------------------------------------------------------------------
// SpMV iteration chain under chaos: the cache-heavy workload whose output
// used to silently diverge when the evictor raced a fill (the bench_cache
// flake). The final iteration writes a non-temporary path so both engines
// materialize to DFS and the part files compare byte-for-byte.
// ---------------------------------------------------------------------------

/// Runs one 2-iteration SpMV chain with all data under `root`. With a
/// schedule, every job goes through SubmitWithChaos and temp outputs are
/// checkpointed (the documented recovery path for place crashes); without
/// one, jobs run pristine. Returns the first terminal job failure so the
/// caller can restart the chain from its generated inputs.
Status RunSpmvChain(api::JobClient& client, dfs::FileSystem& fs,
                    const chaos::ChaosSchedule* schedule,
                    const workloads::SpmvDataParams& params,
                    const std::string& root) {
  M3R_RETURN_NOT_OK(
      workloads::GenerateSpmvData(fs, root + "/g", root + "/v", params));
  const int row_blocks = 4;
  const int iterations = 2;
  std::string v_in = root + "/v";
  int job_index = 0;
  for (int it = 0; it < iterations; ++it) {
    const bool last = it == iterations - 1;
    std::string partial = root + "/temp-p" + std::to_string(it);
    // Non-temp final output: both engines must write real part files.
    std::string v_out = last ? root + "/v-final"
                             : root + "/temp-v" + std::to_string(it + 1);
    auto jobs = workloads::MakeSpmvIterationJobs(
        root + "/g", v_in, partial, v_out, params.num_partitions, row_blocks);
    for (auto& job : jobs) {
      api::JobResult r;
      if (schedule != nullptr) {
        // A scenario with place crashes in its vocabulary destroys
        // cache-only temp data; checkpointing it is what makes a
        // resubmission healable instead of permanently DataLoss.
        job.Set("m3r.cache.checkpoint", "tempout");
        r = SubmitWithChaos(client, job, *schedule, job_index);
      } else {
        r = client.SubmitJob(job);
      }
      if (!r.ok()) return r.status;
      ++job_index;
    }
    v_in = v_out;
  }
  return Status::OK();
}

/// Basenames of the part files under `dir`, for comparisons across chain
/// attempts that ran in different directory trees.
std::vector<std::string> PartBaseNames(dfs::FileSystem& fs,
                                       const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& p : PartFileNames(fs, dir)) {
    out.push_back(p.substr(p.find_last_of('/') + 1));
  }
  return out;
}

TEST(ChaosSoak, SpmvChainByteIdenticalAcrossEngines) {
  for (uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    chaos::ChaosSchedule schedule = ScheduleFor(seed);

    workloads::SpmvDataParams params;
    params.n = 400;
    params.block = 100;
    params.sparsity = 0.05;
    params.num_partitions = 2;
    params.seed = seed;

    auto fs_h = dfs::MakeSimDfs(4, 256 * 1024);
    auto fs_m = dfs::MakeSimDfs(4, 256 * 1024);
    auto hadoop = std::make_shared<hadoop::HadoopEngine>(
        fs_h, hadoop::HadoopEngineOptions{TestCluster(), 0});
    auto m3r = std::make_shared<engine::M3REngine>(
        fs_m, engine::M3REngineOptions{TestCluster()});

    // Run the chaotic chain; if a mid-chain job fails terminally the
    // failure must be loud and typed-retriable (a crash can destroy a
    // cache-only temp dir AND fault the checkpoint that would heal it —
    // the manifest check turns that into DataLoss, never into silently
    // computing on surviving blocks). Recovery is then lineage-style:
    // recompute the whole chain from its inputs in a fresh tree, exactly
    // what a driver that owns the chain would do.
    auto run_to_convergence =
        [&](std::shared_ptr<api::Engine> eng,
            dfs::FileSystem& fs) -> std::optional<std::string> {
      api::JobClient client(eng);
      std::string root = "/spmv/run0";
      Status s = RunSpmvChain(client, fs, &schedule, params, root);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsRetriable()) << "terminal chain failure must be "
                                     << "typed retriable: " << s.ToString();
        root = "/spmv/run1";
        s = RunSpmvChain(client, fs, nullptr, params, root);
      }
      EXPECT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
      if (!s.ok()) return std::nullopt;
      return root + "/v-final";
    };
    auto final_h = run_to_convergence(hadoop, *fs_h);
    auto final_m = run_to_convergence(m3r, *fs_m);
    ASSERT_TRUE(final_h.has_value() && final_m.has_value());

    // Same part-file layout (compared by basename: the two engines may
    // have converged in different chain-attempt trees)…
    auto hadoop_parts = PartBaseNames(*fs_h, *final_h);
    auto m3r_parts = PartBaseNames(*fs_m, *final_m);
    ASSERT_FALSE(hadoop_parts.empty()) << "seed " << seed;
    EXPECT_EQ(hadoop_parts, m3r_parts) << "seed " << seed;

    // …and bit-identical decoded records: exact double equality, no
    // epsilon, so any divergence points straight at the cache lifecycle,
    // not at floating-point noise. (Raw part-file bytes legitimately
    // differ: sequence files carry a per-writer random sync marker.)
    auto vh =
        workloads::ReadDenseVector(*fs_h, *final_h, params.n, params.block);
    auto vm =
        workloads::ReadDenseVector(*fs_m, *final_m, params.n, params.block);
    ASSERT_TRUE(vh.ok()) << vh.status().ToString();
    ASSERT_TRUE(vm.ok()) << vm.status().ToString();
    EXPECT_EQ(*vh, *vm) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Deterministic regression for the silent record loss the soak flushed out:
// a place crash (or an admission bypass) can leave a multi-block input file
// with only its offset-0 block cached. Split planning's whole-file fallback
// used to mistake that survivor for "the whole file cached as one block"
// and serve the file's other splits as empty — the job succeeded with a
// fraction of the input. Blocks now carry a fill-time whole_file stamp and
// the fallback requires it.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, CrashSurvivorInputBlockIsNotMistakenForWholeFile) {
  // 16 KiB DFS blocks over 30 KiB files: every input file has two splits.
  auto fs_h = dfs::MakeSimDfs(4, 16 * 1024);
  auto fs_m = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs_h, "/in", 120 * 1024, 4, 7).ok());
  ASSERT_TRUE(workloads::GenerateText(*fs_m, "/in", 120 * 1024, 4, 7).ok());

  auto hadoop = std::make_shared<hadoop::HadoopEngine>(
      fs_h, hadoop::HadoopEngineOptions{TestCluster(), 0});
  api::JobClient hadoop_client(hadoop);
  api::JobResult ht = hadoop_client.SubmitJob(
      workloads::MakeWordCountJob("/in", "/out", 3, true));
  ASSERT_TRUE(ht.ok()) << ht.status.ToString();
  auto truth = ReadOutputLines(*fs_h, "/out");
  ASSERT_FALSE(truth.empty());

  auto m3r = std::make_shared<engine::M3REngine>(
      fs_m, engine::M3REngineOptions{TestCluster()});
  api::JobClient m3r_client(m3r);

  // Warm run: caches every input split (offset-named, not whole_file)
  // and the job's output partitions (block "0", whole_file).
  api::JobResult warm = m3r_client.SubmitJob(
      workloads::MakeWordCountJob("/in", "/out-warm", 3, true));
  ASSERT_TRUE(warm.ok()) << warm.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs_m, "/out-warm"));

  engine::Cache& cache = m3r->cache();
  auto out_block = cache.GetBlock("/out-warm/part-00000", "0");
  ASSERT_TRUE(out_block.has_value());
  EXPECT_TRUE(out_block->info.whole_file)
      << "output fills must carry the whole-file stamp";

  // Reconstruct the crash aftermath exactly: one two-block input file
  // keeps only its offset-0 block (an input-style fill, as EvictPlace
  // would leave behind).
  const std::string victim = "/in/text-0000.txt";
  auto b0 = cache.GetBlock(victim, "0");
  ASSERT_TRUE(b0.has_value()) << "warm run should have cached " << victim;
  EXPECT_FALSE(b0->info.whole_file)
      << "input split fills must not carry the whole-file stamp";
  auto all_blocks = cache.GetFileBlocks(victim);
  ASSERT_TRUE(all_blocks.ok());
  ASSERT_GE(all_blocks->size(), 2u) << "test needs a multi-block file";
  kvstore::KVSeq survivor(*b0->pairs);
  ASSERT_TRUE(cache.Delete(victim).ok());
  ASSERT_TRUE(cache.PutBlock(victim, "0", b0->info.place,
                             std::move(survivor), b0->bytes,
                             /*fill_seconds=*/0.0, /*droppable=*/true)
                  .ok());

  // Rerun: the surviving block serves its own split, the lost one must be
  // re-read from the DFS — never planned as an empty whole-file remainder.
  api::JobResult again = m3r_client.SubmitJob(
      workloads::MakeWordCountJob("/in", "/out-again", 3, true));
  ASSERT_TRUE(again.ok()) << again.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs_m, "/out-again"));
}

// ---------------------------------------------------------------------------
// Spill-eviction lifecycle: a later admission or settle sweep may spill a
// cache-only temp output to the checkpoint and drop it AFTER the producing
// job ends (the original bench_cache SpMV flake). The public FS view must
// notice the manifest gap and heal from the checkpoint instead of silently
// serving a shrunken listing whose missing rows read as zeros.
// ---------------------------------------------------------------------------

/// Part-file contents under `dir` through the engine's union FS view:
/// path -> serialized (key,value) rows from the cache record reader.
std::map<std::string, std::vector<std::string>> CachedPartContents(
    engine::M3RFileSystem& fs, const std::string& dir) {
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& part : PartFileNames(fs, dir)) {
    auto reader_or = fs.GetCacheRecordReader(part);
    EXPECT_TRUE(reader_or.ok())
        << part << ": " << reader_or.status().ToString();
    if (!reader_or.ok()) continue;
    std::unique_ptr<api::RecordReader> reader = reader_or.take();
    api::WritablePtr key = reader->CreateKey();
    api::WritablePtr value = reader->CreateValue();
    std::vector<std::string>& rows = out[part];
    while (reader->Next(*key, *value)) {
      rows.push_back(serialize::SerializeToString(*key) + "\x1f" +
                     serialize::SerializeToString(*value));
    }
  }
  return out;
}

TEST(ChaosSoak, SpillEvictedTempOutputHealsThroughTheFsView) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 4, 11).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()});
  api::JobClient client(m3r);

  // Governed but roomy: nothing evicts while the job runs, so the
  // eviction below happens strictly after commit — the window the
  // original flake lived in.
  api::JobConf job = workloads::MakeWordCountJob("/in", "/temp-wc", 3,
                                                 /*immutable_output=*/true);
  job.Set(api::conf::kMemoryBudgetMb, "64");
  api::JobResult r = client.SubmitJob(job);
  ASSERT_TRUE(r.ok()) << r.status.ToString();

  engine::M3RFileSystem& view = *m3r->Fs();
  std::vector<std::string> parts = PartFileNames(view, "/temp-wc");
  ASSERT_FALSE(parts.empty());
  auto before = CachedPartContents(view, "/temp-wc");

  // Deterministic stand-in for a later job's evictions: squeeze the budget
  // to one byte and settle. Every cache-only part file gets
  // spilled to the checkpoint and dropped from the cache; the directory
  // manifest must survive the eviction (Cache::Evict, not Delete).
  m3r->governor().SetBudget(1);
  m3r->cache_manager().EvictToBudget();
  for (const std::string& part : parts) {
    EXPECT_FALSE(m3r->cache().ContainsFile(part))
        << part << " should have been evicted";
  }
  m3r->governor().SetBudget(64ull << 20);  // room for the heal to land

  // The union view must restore the spilled files and serve identical
  // content — the original bug returned a shrunken listing here.
  EXPECT_EQ(PartFileNames(view, "/temp-wc"), parts);
  EXPECT_EQ(CachedPartContents(view, "/temp-wc"), before);
}

// ---------------------------------------------------------------------------
// Watchdog: healthy jobs under generous budgets are never killed (no false
// positives), and a genuinely hung job is killed with the typed retriable
// DeadlineExceeded.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, WatchdogNeverKillsHealthyJobs) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 64 * 1024, 2, 3).ok());
  engine::JobServer server(std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()}));

  std::vector<api::JobTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    api::Submission sub;
    sub.conf = workloads::MakeWordCountJob("/in", "/out" + std::to_string(i),
                                           2, /*immutable_output=*/true);
    // Generous budgets: orders of magnitude above the real runtime. Any
    // kill here is a watchdog false positive.
    sub.conf.SetDouble(api::conf::kJobTimeoutSec, 120);
    sub.conf.SetDouble(api::conf::kJobHeartbeatStallSec, 60);
    auto ticket = server.Submit(std::move(sub));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(*ticket));
  }
  for (auto& ticket : tickets) {
    api::JobResult result = ticket.Wait();
    EXPECT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_EQ(result.metrics.count("sched_watchdog_kills"), 0u);
  }
  for (const auto& q : server.Stats()) {
    EXPECT_EQ(q.watchdog_kills, 0) << q.queue;
  }
}

/// Word-count mapper that hangs inside a single Map call far longer than
/// the stall budget, without reporting progress: the shape of a deadlocked
/// or wedged task the watchdog exists to reap.
class HangingWordCountMapper : public workloads::WordCountMapperImmutable {
 public:
  static constexpr const char* kClassName = "HangingWordCountMapper";
  void Map(const api::WritablePtr& key, const api::WritablePtr& value,
           api::OutputCollector& output, api::Reporter& reporter) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    workloads::WordCountMapperImmutable::Map(key, value, output, reporter);
  }
};

M3R_REGISTER_CLASS_AS(api::mapred::Mapper, HangingWordCountMapper,
                      HangingWordCountMapper)

TEST(ChaosSoak, WatchdogKillsStalledJobWithTypedRetriableStatus) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  // Tiny input: cancellation is honored at task boundaries, so the time to
  // reap the job is one map task's worth of napping records.
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 4 * 1024, 1, 7).ok());
  engine::JobServer server(std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()}));

  api::Submission sub;
  sub.conf = workloads::MakeWordCountJob("/in", "/out", 2,
                                         /*immutable_output=*/true);
  sub.conf.Set(api::conf::kMapredMapper, HangingWordCountMapper::kClassName);
  sub.conf.SetDouble(api::conf::kJobHeartbeatStallSec, 0.05);
  auto ticket = server.Submit(std::move(sub));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  api::JobResult result = ticket->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status.IsDeadlineExceeded()) << result.status.ToString();
  // The watchdog kill is retriable — clients treat it like backpressure.
  EXPECT_TRUE(result.status.IsRetriable());
  EXPECT_EQ(result.metrics.at("sched_watchdog_kills"), 1);
  EXPECT_NE(result.status.ToString().find("watchdog"), std::string::npos)
      << result.status.ToString();

  int64_t kills = 0;
  for (const auto& q : server.Stats()) kills += q.watchdog_kills;
  EXPECT_EQ(kills, 1);
}

TEST(ChaosSoak, WatchdogTimeoutCapsTotalRuntime) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 4 * 1024, 1, 9).ok());
  engine::JobServer server(std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()}));

  api::Submission sub;
  sub.conf = workloads::MakeWordCountJob("/in", "/out", 2,
                                         /*immutable_output=*/true);
  sub.conf.Set(api::conf::kMapredMapper, HangingWordCountMapper::kClassName);
  // The job keeps making progress (each Map call finishes), so only the
  // total-runtime cap can fire.
  sub.conf.SetDouble(api::conf::kJobTimeoutSec, 0.05);
  auto ticket = server.Submit(std::move(sub));
  ASSERT_TRUE(ticket.ok());

  api::JobResult result = ticket->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status.IsDeadlineExceeded()) << result.status.ToString();
  EXPECT_NE(result.status.ToString().find("m3r.job.timeout.sec"),
            std::string::npos)
      << result.status.ToString();
}

// ---------------------------------------------------------------------------
// Mid-job place-failure recovery (DESIGN.md §14): a scripted crash inside
// the map phase is survived in-flight with m3r.place.recovery=replay (the
// default) and the recovered output is byte-identical to a crash-free run
// and to the Hadoop engine; with recovery off the same crash is the old
// whole-job retriable failure.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, MidMapCrashRecoversByteIdenticalOnBothEngines) {
  auto fs_h = dfs::MakeSimDfs(4, 16 * 1024);
  auto fs_m = dfs::MakeSimDfs(4, 16 * 1024);
  // 256 KiB over 16 KiB blocks: 16 splits, several map tasks per place, so
  // a "crash before the place's 2nd task" point always exists.
  ASSERT_TRUE(workloads::GenerateText(*fs_h, "/in", 256 * 1024, 4, 13).ok());
  ASSERT_TRUE(workloads::GenerateText(*fs_m, "/in", 256 * 1024, 4, 13).ok());

  auto hadoop = std::make_shared<hadoop::HadoopEngine>(
      fs_h, hadoop::HadoopEngineOptions{TestCluster(), 0});
  auto m3r = std::make_shared<engine::M3REngine>(
      fs_m, engine::M3REngineOptions{TestCluster()});

  // The scripted-crash knob is M3R-only and must be inert on Hadoop.
  api::JobConf hj = workloads::MakeWordCountJob("/in", "/out", 3, true);
  hj.Set(api::conf::kPlaceCrashAt, "1:1");
  api::JobResult hr = hadoop->Submit(hj);
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  auto truth = ReadOutputLines(*fs_h, "/out");
  ASSERT_FALSE(truth.empty());

  // Crash-free M3R baseline.
  api::JobResult base = m3r->Submit(
      workloads::MakeWordCountJob("/in", "/out-base", 3, true));
  ASSERT_TRUE(base.ok()) << base.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs_m, "/out-base"));

  // Recovery pinned off first (while place 1 still owns its splits — a
  // crash evicts its blocks and replants them on survivors, which would
  // defuse a later scripted crash): the pre-recovery contract — a clean,
  // typed-retriable whole-job failure, no partial commit.
  api::JobConf oj = workloads::MakeWordCountJob("/in", "/out-off", 3, true);
  oj.Set(api::conf::kPlaceCrashAt, "1:1");
  oj.Set(api::conf::kPlaceRecoveryMaxCrashes, "0");
  api::JobResult orr = m3r->Submit(oj);
  ASSERT_FALSE(orr.ok());
  EXPECT_TRUE(orr.status.IsUnavailable()) << orr.status.ToString();
  EXPECT_TRUE(orr.status.IsRetriable());
  EXPECT_FALSE(fs_m->Exists("/out-off"));
  EXPECT_EQ(orr.metrics.at("place_crashes"), 1);
  // A pristine resubmission converges to the same bytes.
  api::JobResult retry = m3r->Submit(
      workloads::MakeWordCountJob("/in", "/out-off", 3, true));
  ASSERT_TRUE(retry.ok()) << retry.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs_m, "/out-off"));

  // Place 1 dies right before starting its second map task; the default
  // replay mode recovers in-flight and the job still succeeds.
  api::JobConf rj = workloads::MakeWordCountJob("/in", "/out-rec", 3, true);
  rj.Set(api::conf::kPlaceCrashAt, "1:1");
  api::JobResult rr = m3r->Submit(rj);
  ASSERT_TRUE(rr.ok()) << rr.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs_m, "/out-rec"));
  EXPECT_TRUE(fs_m->Exists("/out-rec/_SUCCESS"));
  EXPECT_EQ(rr.metrics.at("place_crashes"), 1);
  // The crashed place had completed its first task; exactly the lost work
  // replays — never the whole phase.
  EXPECT_GE(rr.metrics.at("recovered_map_tasks"), 1);
  EXPECT_LT(rr.metrics.at("recovered_map_tasks"),
            rr.metrics.at("map_tasks"));
  EXPECT_GE(rr.metrics.at("membership_epoch"), 2);
  EXPECT_GE(rr.metrics.at("partition_map_version"), 2);
  // Recovery is charged to the simulated makespan.
  ASSERT_EQ(rr.metrics.count("recovery_millis"), 1u);
  EXPECT_GT(rr.time_breakdown.at("recovery"), 0.0);
  EXPECT_GT(rr.counters.Get(api::counters::kM3rGroup,
                            api::counters::kPlaceCrashes), 0);
  EXPECT_GT(rr.counters.Get(api::counters::kM3rGroup,
                            api::counters::kRecoveredMapTasks), 0);
}

// ---------------------------------------------------------------------------
// Crash during the pipelined shuffle (DESIGN.md §15): by the time a place
// dies mid-map it has already shipped sorted runs to every reducer home.
// Recovery must discard those pre-barrier runs by source tag and replay the
// lost maps, landing on bytes identical to the barrier exchange
// (flush.bytes=0, same crash) and to the Hadoop engine.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, MidMapCrashDuringPipelinedShuffleStaysByteIdentical) {
  auto fs_h = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs_h, "/in", 256 * 1024, 4, 17).ok());

  // The crash knob is inert on Hadoop, so this doubles as the truth run for
  // "same crash conf on both engines".
  auto hadoop = std::make_shared<hadoop::HadoopEngine>(
      fs_h, hadoop::HadoopEngineOptions{TestCluster(), 0});
  api::JobConf hj = workloads::MakeWordCountJob("/in", "/out", 3, true);
  hj.Set(api::conf::kPlaceCrashAt, "1:1");
  api::JobResult hr = hadoop->Submit(hj);
  ASSERT_TRUE(hr.ok()) << hr.status.ToString();
  auto truth = ReadOutputLines(*fs_h, "/out");
  ASSERT_FALSE(truth.empty());

  // Each crash run gets a fresh engine and DFS: a crash evicts place 1's
  // input blocks and replants its splits on survivors, which would defuse
  // the scripted crash for any later run on the same engine.
  // Flush threshold "1024" is tiny: place 1 ships many runs before it
  // dies, all of which recovery must discard by source tag and replace via
  // replay. The budget variant additionally pushes some of those runs
  // through the overflow spill before their source dies.
  struct Case {
    const char* name;
    const char* flush_bytes;
    const char* budget_mb;  // nullptr = unbudgeted
  };
  for (const Case& c : {Case{"barrier", "0", nullptr},
                        Case{"pipelined", "1024", nullptr},
                        Case{"pipelined-overflow", "1024", "1"}}) {
    SCOPED_TRACE(c.name);
    auto fs = dfs::MakeSimDfs(4, 16 * 1024);
    ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 256 * 1024, 4, 17).ok());
    engine::M3REngine m3r(fs, engine::M3REngineOptions{TestCluster()});
    api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
    job.Set(api::conf::kPlaceCrashAt, "1:1");
    job.Set(api::conf::kShuffleFlushBytes, c.flush_bytes);
    if (c.budget_mb != nullptr) {
      job.Set(api::conf::kShufflePartitionBudgetMb, c.budget_mb);
    }
    api::JobResult r = m3r.Submit(job);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(truth, ReadOutputLines(*fs, "/out"));
    EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
    EXPECT_EQ(r.metrics.at("place_crashes"), 1);
    EXPECT_GE(r.metrics.at("recovered_map_tasks"), 1);
    // Runs shipped in every case: at the barrier only for "barrier",
    // before and after the crash for the streaming cases.
    EXPECT_GT(r.metrics.at("shuffle_runs_shipped"), 0);
  }
}

TEST(ChaosSoak, TwoPlaceCrashesInOneJobBothRecover) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 256 * 1024, 4, 29).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()});

  api::JobResult base = m3r->Submit(
      workloads::MakeWordCountJob("/in", "/out-base", 3, true));
  ASSERT_TRUE(base.ok()) << base.status.ToString();
  auto truth = ReadOutputLines(*fs, "/out-base");
  ASSERT_FALSE(truth.empty());

  // Two distinct places die at different points of the map phase; the
  // default budget (2) covers both, whichever round order they surface in.
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out-two", 3, true);
  job.Set(api::conf::kPlaceCrashAt, "1:1,3:2");
  api::JobResult r = m3r->Submit(job);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs, "/out-two"));
  EXPECT_EQ(r.metrics.at("place_crashes"), 2);
  EXPECT_GE(r.metrics.at("recovered_map_tasks"), 1);
  // Two survivors carried the whole job to the same bytes.
  EXPECT_GE(r.metrics.at("membership_epoch"), 2);
}

TEST(ChaosSoak, ReducePhaseCrashFallsBackToWholeJobRetry) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 128 * 1024, 4, 31).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()});

  // The "m3r.place" site is evaluated once per place per phase: a clean
  // map round burns evaluations 1..4, so the 5th lands on the first
  // reduce-phase liveness check — a crash past the recovery horizon.
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set("m3r.fault.seed", "7");
  job.Set("m3r.fault.m3r.place.nth", "5");
  api::JobResult r = m3r->Submit(job);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
  EXPECT_TRUE(r.status.IsRetriable());
  EXPECT_FALSE(fs->Exists("/out/_SUCCESS"));
  EXPECT_FALSE(fs->Exists("/out"));
  EXPECT_EQ(r.metrics.at("place_crashes"), 1);
  // Nothing was replayed: past the horizon the whole job is the retry unit.
  EXPECT_EQ(r.metrics.at("recovered_map_tasks"), 0);

  // The engine stays healthy: a clean resubmission (the fault fired its
  // once-only nth) succeeds and commits.
  api::JobResult retry = m3r->Submit(
      workloads::MakeWordCountJob("/in", "/out", 3, true));
  ASSERT_TRUE(retry.ok()) << retry.status.ToString();
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
  ASSERT_FALSE(ReadOutputLines(*fs, "/out").empty());
}

TEST(ChaosSoak, CrashBudgetExhaustionFallsBackToWholeJobRetry) {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 256 * 1024, 4, 37).ok());
  auto m3r = std::make_shared<engine::M3REngine>(
      fs, engine::M3REngineOptions{TestCluster()});

  // Two crashes against a budget of one: recovery starts, the second
  // crash exceeds m3r.place.recovery.max.crashes, and the job falls back
  // to the whole-job retriable failure.
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out", 3, true);
  job.Set(api::conf::kPlaceCrashAt, "0:1,2:1");
  job.Set(api::conf::kPlaceRecoveryMaxCrashes, "1");
  api::JobResult r = m3r->Submit(job);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
  EXPECT_TRUE(r.status.IsRetriable());
  EXPECT_FALSE(fs->Exists("/out"));
  EXPECT_EQ(r.metrics.at("place_crashes"), 2);

  api::JobResult retry = m3r->Submit(
      workloads::MakeWordCountJob("/in", "/out", 3, true));
  ASSERT_TRUE(retry.ok()) << retry.status.ToString();
  ASSERT_FALSE(ReadOutputLines(*fs, "/out").empty());
}

// ---------------------------------------------------------------------------
// Two-tier cache under chaos (DESIGN.md §16): demote/promote churn under a
// tight budget, and a scripted place crash that takes an L2 shard with it
// mid-job. Both must land on bytes identical to the ungoverned truth.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, L2DemotePromoteChurnStaysByteIdentical) {
  // 6 MiB over 16 files of three 128 KiB blocks each: victims small enough
  // to fit a shard, working set far over the budget.
  auto fs = dfs::MakeSimDfs(4, 128 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 6 << 20, 16, 41).ok());

  std::vector<std::string> truth;
  {
    engine::M3REngine ref(fs, engine::M3REngineOptions{TestCluster()});
    api::JobResult r = ref.Submit(
        workloads::MakeWordCountJob("/in", "/out-ref", 3, true));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    truth = ReadOutputLines(*fs, "/out-ref");
    ASSERT_FALSE(truth.empty());
  }

  // A 2 MiB budget against the 6 MiB working set: mid-job admission evicts
  // (each victim demoting to its home shard) while split planning promotes
  // the same paths back — the demote/promote interleaving the tier's lease
  // interlock and settle sweep exist for. Two passes over the same input so
  // the second planner finds pass-1 demotions to promote.
  engine::M3REngine m3r(fs, engine::M3REngineOptions{TestCluster()});
  int64_t demotions = 0;
  int64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string out = "/out-l2-" + std::to_string(pass);
    api::JobConf job = workloads::MakeWordCountJob("/in", out, 3, true);
    job.SetInt(api::conf::kMemoryBudgetMb, 2);
    job.Set(api::conf::kCacheL2Share, "1.0");
    api::JobResult r = m3r.Submit(job);
    ASSERT_TRUE(r.ok()) << "pass " << pass << ": " << r.status.ToString();
    EXPECT_EQ(truth, ReadOutputLines(*fs, out)) << "pass " << pass;
    demotions += r.metrics.at("l2_demotions");
    hits += r.metrics.at("l2_hits");
  }
  EXPECT_GT(demotions, 0) << "the tier never absorbed an eviction";
  EXPECT_GT(hits, 0) << "no demoted block was ever promoted back";
}

TEST(ChaosSoak, MidMapCrashTakingAnL2ShardHealsByteIdentical) {
  auto fs = dfs::MakeSimDfs(4, 128 * 1024);
  ASSERT_TRUE(workloads::GenerateText(*fs, "/in", 6 << 20, 16, 43).ok());

  std::vector<std::string> truth;
  {
    engine::M3REngine ref(fs, engine::M3REngineOptions{TestCluster()});
    api::JobResult r = ref.Submit(
        workloads::MakeWordCountJob("/in", "/out-ref", 3, true));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    truth = ReadOutputLines(*fs, "/out-ref");
    ASSERT_FALSE(truth.empty());
  }

  // Place 1 dies before its second map task with the tier holding demoted
  // blocks: its shard's hash range falls to the survivors, the dropped
  // entries heal lazily from DFS/checkpoint, and recovery replays exactly
  // the lost maps — never DataLoss, never divergent bytes.
  engine::M3REngine m3r(fs, engine::M3REngineOptions{TestCluster()});
  api::JobConf job = workloads::MakeWordCountJob("/in", "/out-crash", 3, true);
  job.SetInt(api::conf::kMemoryBudgetMb, 2);
  job.Set(api::conf::kCacheL2Share, "1.0");
  job.Set(api::conf::kPlaceCrashAt, "1:1");
  api::JobResult r = m3r.Submit(job);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(truth, ReadOutputLines(*fs, "/out-crash"));
  EXPECT_TRUE(fs->Exists("/out-crash/_SUCCESS"));
  EXPECT_EQ(r.metrics.at("place_crashes"), 1);
  EXPECT_GE(r.metrics.at("recovered_map_tasks"), 1);
  EXPECT_GE(r.metrics.at("l2_ring_heals"), 1)
      << "the dead place's shard was never reassigned";
  // The healed run still exercised the tier.
  EXPECT_GT(r.metrics.at("l2_demotions"), 0);
}

// ---------------------------------------------------------------------------
// Schedule determinism: the same seed always yields the same overrides —
// the property that makes a soak failure replayable from its seed alone.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, SchedulesAreDeterministicAndSeedSensitive) {
  chaos::ChaosSchedule a = ScheduleFor(7);
  chaos::ChaosSchedule b = ScheduleFor(7);
  chaos::ChaosSchedule c = ScheduleFor(8);
  for (int job = 0; job < 4; ++job) {
    EXPECT_EQ(a.JobOverrides(job), b.JobOverrides(job));
  }
  bool any_differs = false;
  for (int job = 0; job < 4 && !any_differs; ++job) {
    any_differs = a.JobOverrides(job) != c.JobOverrides(job);
  }
  EXPECT_TRUE(any_differs);
  EXPECT_EQ(a.PreemptionArmed(), b.PreemptionArmed());
  EXPECT_EQ(a.CancellationArmed(), b.CancellationArmed());

  // Disabled schedule (seed 0) emits nothing.
  chaos::ChaosSchedule off{chaos::ChaosOptions{}};
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.JobOverrides(0).empty());
  EXPECT_FALSE(off.PreemptionArmed());
  EXPECT_FALSE(off.CancellationArmed());
}

}  // namespace
}  // namespace m3r

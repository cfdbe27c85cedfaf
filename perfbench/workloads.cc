#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "api/counters.h"
#include "api/sequence_file.h"
#include "common/logging.h"
#include "dfs/local_fs.h"
#include "serialize/basic_writables.h"
#include "workloads/matrix_gen.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Folds one JobResult into the per-layer sums.
void Fold(const api::JobResult& r, std::map<std::string, double>* sums) {
  auto metric = [&](const char* name) {
    auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto sim = [&](const char* name) {
    auto it = r.time_breakdown.find(name);
    return it == r.time_breakdown.end() ? 0.0 : it->second;
  };
  auto counter = [&](const char* group, const char* name) {
    return static_cast<double>(r.counters.Get(group, name));
  };
  auto add = [&](const char* key, double v) { (*sums)[key] += v; };
  auto peak = [&](const char* key, double v) {
    double& cur = (*sums)[key];
    cur = std::max(cur, v);
  };
  namespace c = api::counters;

  add("sim.map_phase_s", sim("map_phase"));
  add("sim.shuffle_s", sim("shuffle"));
  add("sim.sort_s", sim("sort"));
  add("sim.reduce_phase_s", sim("reduce_phase"));
  add("sim.job_overhead_s", sim("job_overhead"));

  add("shuffle.wire_mb", metric("shuffle_wire_bytes") / kMiB);
  add("shuffle.remote_pairs", metric("shuffle_remote_pairs"));
  add("shuffle.local_pairs", metric("shuffle_local_pairs"));
  add("shuffle.runs_shipped", metric("shuffle_runs_shipped"));
  add("shuffle.overflow_spills", metric("shuffle_overflow_spills"));
  peak("shuffle.pool_peak_mb", metric("shuffle_pool_peak_bytes") / kMiB);
  add("shuffle.first_reduce_ms", metric("time_to_first_reduce_ms"));

  add("dedup.saved_mb", metric("dedup_saved_bytes") / kMiB);
  add("pairs.cloned", metric("cloned_pairs"));
  add("pairs.aliased", metric("aliased_pairs"));

  add("combine.input_records", counter(c::kTaskGroup, c::kCombineInputRecords));
  add("combine.output_records",
      counter(c::kTaskGroup, c::kCombineOutputRecords));
  add("map.output_records", counter(c::kTaskGroup, c::kMapOutputRecords));

  add("cache.hit_splits", counter(c::kM3rGroup, c::kCacheHits));
  add("cache.miss_splits", counter(c::kM3rGroup, c::kCacheMisses));
  add("cache.evictions", metric("cache_evictions"));
  add("cache.spilled_evictions", metric("cache_spilled_evictions"));
  add("cache.rejected_fills", metric("cache_rejected_fills"));
  peak("memory.peak_mb", metric("memory_peak_bytes") / kMiB);

  add("l2.hits", metric("l2_hits"));
  add("l2.misses", metric("l2_misses"));
  add("l2.demotions", metric("l2_demotions"));
  add("l2.remote_mb", metric("l2_remote_bytes") / kMiB);
  add("l2.overflow_fills", metric("l2_overflow_fills"));
}

/// Deletes a verified or superseded output through the engine's file
/// system (cache and DFS), plus any checkpoint copy eviction left behind.
void DeleteOutput(JobRunner& runner, dfs::FileSystem& base,
                  const std::string& path) {
  M3R_CHECK_OK(runner.engine().Fs()->Delete(path, true));
  const std::string ckpt =
      std::string(engine::M3REngine::kCheckpointRoot) + path;
  if (base.Exists(ckpt)) M3R_CHECK_OK(base.Delete(ckpt, true));
}

/// Part files of a job output directory, in name order.
std::vector<std::string> PartFiles(dfs::FileSystem& fs,
                                   const std::string& dir) {
  std::vector<std::string> parts;
  auto listing = fs.ListStatus(dir);
  if (!listing.ok()) return parts;
  for (const auto& f : *listing) {
    if (!f.is_directory && f.path.find("part-") != std::string::npos) {
      parts.push_back(f.path);
    }
  }
  std::sort(parts.begin(), parts.end());
  return parts;
}

// ------------------------------------------------------------ wordcount

/// Multi-pass WordCount with map-side hash-combine over one generated text.
/// Pass 1 fills the cache; later passes read it, so user map, emit,
/// serialization and counter bookkeeping dominate.
class WordCountWorkload : public Workload {
 public:
  explicit WordCountWorkload(uint64_t seed) : seed_(seed) {}

  void Generate(dfs::FileSystem& fs) override {
    M3R_CHECK_OK(workloads::GenerateText(fs, kInput, kBytes, kFiles, seed_));
  }

  void PrepareOracle(dfs::FileSystem& fs) override {
    if (!expected_.empty()) return;
    for (const std::string& file : InputFiles(fs)) {
      auto text = fs.ReadFile(file);
      M3R_CHECK(text.ok()) << text.status().ToString();
      // TextInputFormat splits lines on '\n'; the mapper splits on ' '.
      size_t pos = 0;
      const std::string& s = *text;
      while (pos < s.size()) {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n')) ++pos;
        size_t end = pos;
        while (end < s.size() && s[end] != ' ' && s[end] != '\n') ++end;
        if (end > pos) ++expected_[s.substr(pos, end - pos)];
        pos = end;
      }
    }
  }

  void Run(JobRunner& runner, dfs::FileSystem& base) override {
    for (int pass = 0; pass < kPasses; ++pass) {
      const std::string out = "/wc/out-" + std::to_string(pass);
      api::JobConf job =
          workloads::MakeWordCountJob(kInput, out, kReducers, true);
      job.Set(api::conf::kMapHashCombine, "true");
      if (!runner.Submit(job)) continue;
      Tracer::Suppress quiet;
      runner.Verdict(Check(*runner.engine().Fs(), out));
      DeleteOutput(runner, base, out);
    }
  }

  std::string DescribeJson() const override {
    return "\"input_bytes\": " + std::to_string(kBytes) +
           ", \"input_files\": " + std::to_string(kFiles) +
           ", \"passes\": " + std::to_string(kPasses) +
           ", \"reducers\": " + std::to_string(kReducers) +
           ", \"mapper\": \"WordCountMapperImmutable\"";
  }

 private:
  static constexpr const char* kInput = "/wc/in";
  static constexpr uint64_t kBytes = 2ull << 20;
  static constexpr int kFiles = 20;
  static constexpr int kPasses = 4;
  static constexpr int kReducers = 20;

  static std::vector<std::string> InputFiles(dfs::FileSystem& fs) {
    std::vector<std::string> files;
    auto listing = fs.ListStatus(kInput);
    M3R_CHECK(listing.ok()) << listing.status().ToString();
    for (const auto& f : *listing) {
      if (!f.is_directory) files.push_back(f.path);
    }
    return files;
  }

  bool Check(dfs::FileSystem& fs, const std::string& out) const {
    size_t seen = 0;
    for (const std::string& part : PartFiles(fs, out)) {
      auto text = fs.ReadFile(part);
      if (!text.ok()) return false;
      size_t pos = 0;
      const std::string& s = *text;
      while (pos < s.size()) {
        size_t nl = s.find('\n', pos);
        if (nl == std::string::npos) nl = s.size();
        const size_t tab = s.find('\t', pos);
        if (tab == std::string::npos || tab > nl) return false;
        auto it = expected_.find(s.substr(pos, tab - pos));
        if (it == expected_.end() ||
            std::to_string(it->second) != s.substr(tab + 1, nl - tab - 1)) {
          return false;
        }
        ++seen;
        pos = nl + 1;
      }
    }
    return seen == expected_.size();
  }

  uint64_t seed_;
  std::unordered_map<std::string, int64_t> expected_;
};

// ---------------------------------------------------------- spmv_budget

/// Iterative SpMV whose matrix working set exceeds the memory budget, with
/// the L2 tier on: eviction, demotion/promotion, checkpoint spill and DFS
/// re-reads dominate, while partition stability keeps the shuffle local.
class SpmvBudgetWorkload : public Workload {
 public:
  explicit SpmvBudgetWorkload(uint64_t seed) {
    params_.n = 16000;
    params_.block = 2000;
    params_.sparsity = 0.01;
    params_.num_partitions = 8;
    params_.seed = seed;
    params_.hadoop_placement = false;
  }

  void Generate(dfs::FileSystem& fs) override {
    M3R_CHECK_OK(workloads::GenerateSpmvData(fs, kG, kV, params_));
  }

  void PrepareOracle(dfs::FileSystem& fs) override {
    if (!expected_.empty()) return;
    auto v = workloads::ReadDenseVector(fs, kV, params_.n, params_.block);
    M3R_CHECK(v.ok()) << v.status().ToString();
    std::vector<double> x = v.take();
    for (int it = 0; it < kIterations; ++it) {
      auto y = workloads::ReferenceMultiply(fs, kG, x, params_.n,
                                            params_.block);
      M3R_CHECK(y.ok()) << y.status().ToString();
      x = y.take();
      expected_.push_back(x);
    }
  }

  void Run(JobRunner& runner, dfs::FileSystem& base) override {
    const int row_blocks =
        static_cast<int>((params_.n + params_.block - 1) / params_.block);
    std::string v_in = kV;
    for (int it = 0; it < kIterations; ++it) {
      const std::string partial = "/spmv/temp-partial-" + std::to_string(it);
      const std::string v_out = "/spmv/temp-v" + std::to_string(it + 1);
      auto jobs = workloads::MakeSpmvIterationJobs(
          kG, v_in, partial, v_out, params_.num_partitions, row_blocks);
      bool ok = true;
      for (size_t j = 0; j < jobs.size() && ok; ++j) {
        jobs[j].SetInt(api::conf::kMemoryBudgetMb, kBudgetMb);
        jobs[j].Set(api::conf::kCacheL2Share, kL2Share);
        jobs[j].Set(api::conf::kCachePolicy, "lru");
        ok = runner.Submit(jobs[j]);
        if (!ok) runner.Skipped(static_cast<int>(jobs.size() - j - 1));
      }
      if (!ok) {
        runner.Skipped(2 * (kIterations - it - 1));
        return;
      }
      Tracer::Suppress quiet;
      runner.Verdict(Check(*runner.engine().Fs(), v_out, expected_[it]));
      DeleteOutput(runner, base, partial);
      if (v_in != kV) DeleteOutput(runner, base, v_in);
      v_in = v_out;
    }
    Tracer::Suppress quiet;
    DeleteOutput(runner, base, v_in);
  }

  std::string DescribeJson() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"n\": %lld, \"block\": %d, \"density\": %g, "
                  "\"partitions\": %d, \"iterations\": %d",
                  static_cast<long long>(params_.n), params_.block,
                  params_.sparsity, params_.num_partitions, kIterations);
    return buf;
  }

 private:
  static constexpr const char* kG = "/spmv/g";
  static constexpr const char* kV = "/spmv/v";
  static constexpr int kIterations = 10;
  static constexpr int64_t kBudgetMb = 16;
  static constexpr const char* kL2Share = "0.5";

  bool Check(dfs::FileSystem& fs, const std::string& v_out,
             const std::vector<double>& expected) const {
    auto got =
        workloads::ReadDenseVector(fs, v_out, params_.n, params_.block);
    if (!got.ok() || got->size() != expected.size()) return false;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (std::fabs((*got)[i] - expected[i]) >
          1e-9 * std::fabs(expected[i])) {
        return false;
      }
    }
    return true;
  }

  workloads::SpmvDataParams params_;
  std::vector<std::vector<double>> expected_;
};

// -------------------------------------------------------- shuffle_spill

/// The §6.1 micro job, all-remote, with 1 KiB values and a per-partition
/// shuffle budget below each partition's run bytes: wire, dedup, sort/merge
/// and the overflow spill sink dominate; the map is trivial.
class ShuffleSpillWorkload : public Workload {
 public:
  explicit ShuffleSpillWorkload(uint64_t seed) : seed_(seed) {}

  void Generate(dfs::FileSystem& fs) override {
    M3R_CHECK_OK(workloads::GenerateMicroInput(
        fs, kInput, kPairs, kValueBytes, kPartitions, seed_, false));
  }

  void PrepareOracle(dfs::FileSystem& fs) override {
    if (expected_records_ != 0) return;
    for (const std::string& part : PartFiles(fs, kInput)) {
      auto pairs = api::ReadSequenceFile(fs, part);
      M3R_CHECK(pairs.ok()) << pairs.status().ToString();
      for (const auto& [key, value] : *pairs) {
        expected_digest_ += ValueHash(*value);
        ++expected_records_;
      }
    }
  }

  void Run(JobRunner& runner, dfs::FileSystem& base) override {
    for (int j = 0; j < kJobs; ++j) {
      const std::string out = "/micro/out-" + std::to_string(j);
      api::JobConf job = workloads::MakeMicroJob(kInput, out, kPartitions,
                                                 kRemoteRatio, seed_);
      job.SetInt(api::conf::kShufflePartitionBudgetMb, kPartitionBudgetMb);
      if (!runner.Submit(job)) continue;
      Tracer::Suppress quiet;
      runner.Verdict(Check(*runner.engine().Fs(), out));
      DeleteOutput(runner, base, out);
    }
  }

  std::string DescribeJson() const override {
    return "\"pairs\": " + std::to_string(kPairs) +
           ", \"value_bytes\": " + std::to_string(kValueBytes) +
           ", \"partitions\": " + std::to_string(kPartitions) +
           ", \"jobs\": " + std::to_string(kJobs) + ", \"remote_ratio\": 1.0";
  }

 private:
  static constexpr const char* kInput = "/micro/in";
  static constexpr uint64_t kPairs = 40000;
  static constexpr uint64_t kValueBytes = 1024;
  static constexpr int kPartitions = 8;
  static constexpr int kJobs = 8;
  static constexpr double kRemoteRatio = 1.0;
  static constexpr int64_t kPartitionBudgetMb = 4;

  /// FNV-1a over the value bytes; summed, it is order-independent.
  static uint64_t ValueHash(const api::Writable& value) {
    const std::string& bytes =
        static_cast<const serialize::BytesWritable&>(value).Get();
    uint64_t h = 1469598103934665603ull;
    for (char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  bool Check(dfs::FileSystem& fs, const std::string& out) const {
    uint64_t digest = 0;
    uint64_t records = 0;
    for (const std::string& part : PartFiles(fs, out)) {
      auto pairs = api::ReadSequenceFile(fs, part);
      if (!pairs.ok()) return false;
      for (const auto& [key, value] : *pairs) {
        digest += ValueHash(*value);
        ++records;
      }
    }
    return records == expected_records_ && digest == expected_digest_;
  }

  uint64_t seed_;
  uint64_t expected_records_ = 0;
  uint64_t expected_digest_ = 0;
};

}  // namespace

engine::M3REngineOptions EngineOptions(int host_threads) {
  engine::M3REngineOptions opts;
  opts.cluster.num_nodes = 20;
  opts.cluster.slots_per_node = 8;
  opts.cluster.data_scale = 256;
  opts.host_threads = host_threads;
  opts.workers_per_place = kWorkersPerPlace;
  return opts;
}

std::shared_ptr<dfs::FileSystem> MakeBaseDfs() {
  return dfs::MakeSimDfs(20, 64 * 1024, 3);
}

JobRunner::JobRunner(engine::M3REngine& engine, RepStats* stats,
                     Tracer* tracer)
    : engine_(engine), stats_(stats), tracer_(tracer) {}

bool JobRunner::Submit(api::JobConf job) {
  job.SetInt(api::conf::kPlaceWorkers, kWorkersPerPlace);
  job.Set(api::conf::kShufflePipeline, "on");
  job.Set(api::conf::kTempPrefix, "temp");
  for (const auto& [key, value] : job.raw()) {
    if (key.rfind("m3r.", 0) == 0) knobs_[key] = value;
  }
  if (tracer_ != nullptr) TraceJob(&job);

  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  if (tracer_ != nullptr) tracer_->BeginJob(job.JobName());
  const api::JobResult result = engine_.Submit(job);
  if (tracer_ != nullptr) stats_->layers.Add(tracer_->EndJob());
  stats_->wall_s += static_cast<double>(NowNs() - t0) / 1e9;
  stats_->cpu_s += ProcessCpuSeconds() - cpu0;
  stats_->sim_s += result.sim_seconds;
  ++stats_->attempted;
  Fold(result, &stats_->sums);
  if (!result.ok()) {
    ++stats_->failed;
    std::fprintf(stderr, "job %s failed: %s\n", job.JobName().c_str(),
                 result.status.ToString().c_str());
  }
  return result.ok();
}

void JobRunner::Verdict(bool correct) {
  if (correct) return;
  ++stats_->failed;
  std::fprintf(stderr, "oracle rejected the output of a job\n");
}

void JobRunner::Skipped(int n) {
  stats_->attempted += n;
  stats_->failed += n;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "wordcount") return std::make_unique<WordCountWorkload>(seed);
  if (name == "spmv_budget") return std::make_unique<SpmvBudgetWorkload>(seed);
  if (name == "shuffle_spill") {
    return std::make_unique<ShuffleSpillWorkload>(seed);
  }
  return nullptr;
}

}  // namespace m3r::perfbench

// Regenerates Figure 6: the shuffle micro-benchmark (paper §6.1).
//
// Input: N pairs, ascending integer keys, fixed-size byte values (the
// paper uses 1M x 10KB on 10 GbE-era hardware; scaled here — the cost
// model is applied to actual byte counts, so series shapes survive).
// The ImmutableOutput mapper keeps each pair's key with probability
// (1 - remote%) or rewrites it to partition to the adjacent host. Three
// iterations chain output to input; under M3R all intermediate outputs are
// temporary and the previous iteration's input is explicitly deleted
// (§6.1). Also reports the §6.1.1 one-off repartitioning cost.
#include "bench_util.h"
#include "m3r/repartition.h"
#include "workloads/micro_gen.h"
#include "workloads/shuffle_micro.h"

namespace m3r {
namespace {

constexpr uint64_t kNumPairs = 20000;
constexpr uint64_t kValueBytes = 1024;
constexpr int kPartitions = 160;  // paper: 8 reducers x 20 nodes
constexpr int kIterations = 3;

void RunHadoop(double ratios[], int num_ratios) {
  bench::Banner("Figure 6 (left): Hadoop engine, seconds per iteration");
  bench::Table table({"remote_pct", "iter1_s", "iter2_s", "iter3_s"});
  for (int r = 0; r < num_ratios; ++r) {
    auto fs = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateMicroInput(
        *fs, "/micro/in", kNumPairs, kValueBytes, kPartitions, 42,
        /*hadoop_placement=*/true));
    hadoop::HadoopEngine engine(fs, bench::HadoopOpts());
    std::vector<double> row = {ratios[r] * 100};
    std::string input = "/micro/in";
    for (int it = 0; it < kIterations; ++it) {
      std::string output = "/micro/out-" + std::to_string(it);
      api::JobConf job = workloads::MakeMicroJob(
          input, output, kPartitions, ratios[r],
          static_cast<uint64_t>(it + 1));
      api::JobResult result = engine.Submit(job);
      M3R_CHECK(result.ok()) << result.status.ToString();
      row.push_back(result.sim_seconds);
      input = output;
    }
    table.Row(row);
  }
}

void RunM3R(double ratios[], int num_ratios, const char* pipeline) {
  bench::Banner(std::string("Figure 6 (right): M3R engine, seconds per "
                            "iteration, shuffle pipeline=") +
                pipeline);
  std::printf("(input repartitioned once ahead of time; intermediate\n"
              " outputs marked temporary; previous input deleted per §6.1)\n");
  bench::Table table({"remote_pct", "repart_s", "iter1_s", "iter2_s",
                      "iter3_s", "first_reduce_ms"});
  for (int r = 0; r < num_ratios; ++r) {
    auto fs = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateMicroInput(
        *fs, "/micro/in", kNumPairs, kValueBytes, kPartitions, 42,
        /*hadoop_placement=*/true));
    // One-off repartition (§6.1.1): Hadoop-placed data -> stable places.
    // Run in its own M3R instance: "this is a one-off cost, as the
    // reorganized data can be used ... in any run of the benchmark
    // subsequent to this" — so the measured iterations start with a cold
    // cache and iteration 1 pays the HDFS read + deserialization.
    api::JobResult repart;
    {
      engine::M3REngine repart_engine(fs, bench::M3ROpts());
      api::JobConf base = workloads::MakeMicroJob("/micro/in", "",
                                                  kPartitions, 0, 1);
      repart = repart_engine.Submit(engine::MakeRepartitionJob(
          base, "/micro/in", "/micro/stable"));
      M3R_CHECK(repart.ok()) << repart.status.ToString();
    }
    engine::M3REngine engine(fs, bench::M3ROpts());

    std::vector<double> row = {ratios[r] * 100, repart.sim_seconds};
    std::string input = "/micro/stable";
    double first_reduce_ms = 0;
    for (int it = 0; it < kIterations; ++it) {
      // All but the final iteration's output are temporary.
      std::string output = it + 1 < kIterations
                               ? "/micro/temp-out-" + std::to_string(it)
                               : "/micro/final";
      api::JobConf job = workloads::MakeMicroJob(
          input, output, kPartitions, ratios[r],
          static_cast<uint64_t>(it + 1));
      // "off" is the barrier exchange (threshold 0); "on" is small enough
      // that every lane ships several runs at this scale.
      job.Set(api::conf::kShuffleFlushBytes,
              std::string(pipeline) == "on" ? "16384" : "0");
      api::JobResult result = engine.Submit(job);
      M3R_CHECK(result.ok()) << result.status.ToString();
      row.push_back(result.sim_seconds);
      if (result.metrics.count("time_to_first_reduce_ms")) {
        first_reduce_ms = static_cast<double>(
            result.metrics.at("time_to_first_reduce_ms"));
      }
      // Delete the consumed input (cache hygiene, §6.1).
      if (it > 0) M3R_CHECK_OK(engine.Fs()->Delete(input, true));
      input = output;
    }
    row.push_back(first_reduce_ms);
    table.Row(row);
  }
}

}  // namespace
}  // namespace m3r

int main() {
  std::printf("M3R reproduction — Figure 6: shuffle locality micro-benchmark\n");
  std::printf("pairs=%llu value=%lluB partitions=%d cluster=20x8\n",
              (unsigned long long)m3r::kNumPairs,
              (unsigned long long)m3r::kValueBytes, m3r::kPartitions);
  double ratios[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  m3r::RunHadoop(ratios, 6);
  // The M3R side sweeps both shuffle modes: the barrier batch (the paper's
  // shape) and the §15 pipelined runs that overlap map compute with wire
  // time.
  m3r::RunM3R(ratios, 6, "off");
  m3r::RunM3R(ratios, 6, "on");
  return 0;
}

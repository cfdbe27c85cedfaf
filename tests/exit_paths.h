#ifndef M3R_TESTS_EXIT_PATHS_H_
#define M3R_TESTS_EXIT_PATHS_H_

// Every way a submission can end, on each engine, over one small WordCount
// input (64 KiB of text in 4 files, seed 11). The tests that pin what a job
// reports on each exit (metric keys, counter mirrors, time breakdown) share
// these runs.

#include <string>

#include "api/engine.h"
#include "common/logging.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::exit_paths {

/// The result's time_breakdown keys, sorted and space-separated.
inline std::string PhaseKeys(const api::JobResult& r) {
  std::string keys;
  for (const auto& [phase, seconds] : r.time_breakdown) {
    if (!keys.empty()) keys += ' ';
    keys += phase;
  }
  return keys;
}

inline std::shared_ptr<dfs::FileSystem> ExitInput() {
  auto fs = dfs::MakeSimDfs(4, 8 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 64 * 1024, 4, 11));
  return fs;
}

/// M3R exits, with the governor off and one worker strand per place (so
/// wire bytes and crash timing are deterministic).
enum class Exit {
  kReduce,
  kMapOnlyDfs,
  kMapOnlyTemp,
  kReuseHit,
  kCheckpointRestore,
  kRecoveredCrash,
  kUnrecoveredCrash,
  kReduceFault,
  kMapFault,    // a map task fails: nothing charged, nothing reported
  kReduceCrash, // a place dies past the map barrier: the whole-job fallback
};

struct NamedExit {
  const char* name;
  Exit exit;
};

inline constexpr NamedExit kAllExits[] = {
    {"reduce", Exit::kReduce},
    {"map-only-dfs", Exit::kMapOnlyDfs},
    {"map-only-temp", Exit::kMapOnlyTemp},
    {"reuse-hit", Exit::kReuseHit},
    {"checkpoint-restore", Exit::kCheckpointRestore},
    {"recovered-crash", Exit::kRecoveredCrash},
    {"unrecovered-crash", Exit::kUnrecoveredCrash},
    {"reduce-fault", Exit::kReduceFault},
    {"map-fault", Exit::kMapFault},
    {"reduce-crash", Exit::kReduceCrash},
};

inline api::JobResult RunExit(Exit exit) {
  auto fs = ExitInput();
  auto job = [](const std::string& out, int reducers,
                bool immutable = true) {
    api::JobConf j =
        workloads::MakeWordCountJob("/in", out, reducers, immutable);
    j.SetInt(api::conf::kPlaceWorkers, 1);
    return j;
  };
  engine::M3REngineOptions opts;
  opts.cluster.num_nodes = 4;
  opts.cluster.slots_per_node = 2;
  engine::M3REngine m3r(fs, opts);
  switch (exit) {
    case Exit::kReduce:
      return m3r.Submit(job("/out", 2, /*immutable=*/false));
    case Exit::kMapOnlyDfs:
      return m3r.Submit(job("/out", 0));
    case Exit::kMapOnlyTemp:
      return m3r.Submit(job("/temp-out", 0));
    case Exit::kReuseHit: {
      api::JobConf j = job("/temp-r1", 2);
      j.Set(api::conf::kCacheReuse, "exact");
      M3R_CHECK_OK(m3r.Submit(j).status);
      j.SetOutputPath("/temp-r2");
      return m3r.Submit(j);
    }
    case Exit::kCheckpointRestore: {
      api::JobConf j = job("/temp-c", 2);
      j.Set(api::conf::kCacheCheckpoint, "tempout");
      {
        engine::M3REngine first(fs, opts);
        M3R_CHECK_OK(first.Submit(j).status);
        first.WaitForCheckpoints();
      }
      return m3r.Submit(j);
    }
    case Exit::kRecoveredCrash: {
      api::JobConf j = job("/out", 2);
      j.Set(api::conf::kPlaceCrashAt, "1:1");
      return m3r.Submit(j);
    }
    case Exit::kUnrecoveredCrash: {
      api::JobConf j = job("/out", 2);
      j.Set(api::conf::kPlaceCrashAt, "1:1");
      j.SetInt(api::conf::kPlaceRecoveryMaxCrashes, 0);
      return m3r.Submit(j);
    }
    case Exit::kReduceFault: {
      api::JobConf j = job("/out", 2);
      j.Set("m3r.fault.m3r.reduce.prob", "1");
      return m3r.Submit(j);
    }
    case Exit::kMapFault: {
      api::JobConf j = job("/out", 2);
      j.Set("m3r.fault.m3r.map.prob", "1");
      // One fault: a second place can reach the site before the first
      // abort stops it, and the exit pins injected_faults=1.
      j.Set("m3r.fault.m3r.map.limit", "1");
      return m3r.Submit(j);
    }
    case Exit::kReduceCrash: {
      // The "m3r.place" site is evaluated once per place per phase: the
      // map round burns evaluations 1..4, so the 5th kills a place at the
      // first reduce-phase liveness check.
      api::JobConf j = job("/out", 2);
      j.Set("m3r.fault.seed", "7");
      j.Set("m3r.fault.m3r.place.nth", "5");
      return m3r.Submit(j);
    }
  }
  return {};
}

/// Hadoop exits, on a 3x2 cluster.
enum class HadoopExit {
  kReduce,
  kMapOnly,
  kRetriedMapFault,    // the first map attempt fails, its retry succeeds
  kExhaustedMapFault,  // every map attempt fails
  kReduceFault,
  kIntegrityDetect,
};

struct HadoopExitCase {
  const char* name;
  HadoopExit exit;
  bool ok;
  /// PhaseKeys of the result: a failure charges and reports nothing.
  const char* phases;
};

inline constexpr HadoopExitCase kHadoopExitCases[] = {
    {"reduce", HadoopExit::kReduce, true,
     "commit map_phase reduce_phase sort submit"},
    {"map-only", HadoopExit::kMapOnly, true, "commit map_phase submit"},
    {"retried-map-fault", HadoopExit::kRetriedMapFault, true,
     "commit map_phase reduce_phase sort submit"},
    {"exhausted-map-fault", HadoopExit::kExhaustedMapFault, false, ""},
    {"reduce-fault", HadoopExit::kReduceFault, false, ""},
    {"integrity-detect", HadoopExit::kIntegrityDetect, true,
     "commit integrity map_phase reduce_phase sort submit"},
};

inline api::JobResult RunHadoopExit(HadoopExit exit) {
  auto fs = ExitInput();
  hadoop::HadoopEngineOptions opts;
  opts.cluster.num_nodes = 3;
  opts.cluster.slots_per_node = 2;
  hadoop::HadoopEngine engine(fs, opts);
  api::JobConf j = workloads::MakeWordCountJob(
      "/in", "/out", exit == HadoopExit::kMapOnly ? 0 : 2, true);
  switch (exit) {
    case HadoopExit::kReduce:
    case HadoopExit::kMapOnly:
      break;
    case HadoopExit::kRetriedMapFault:
      j.Set("m3r.fault.hadoop.map.prob", "1");
      j.Set("m3r.fault.hadoop.map.limit", "1");
      break;
    case HadoopExit::kExhaustedMapFault:
      j.Set("m3r.fault.hadoop.map.prob", "1");
      break;
    case HadoopExit::kReduceFault:
      j.Set("m3r.fault.hadoop.reduce.prob", "1");
      break;
    case HadoopExit::kIntegrityDetect:
      j.Set(api::conf::kIntegrityMode, "detect");
      break;
  }
  return engine.Submit(j);
}

}  // namespace m3r::exit_paths

#endif  // M3R_TESTS_EXIT_PATHS_H_

#ifndef M3R_PERFBENCH_TRACING_H_
#define M3R_PERFBENCH_TRACING_H_

// Outside-in layer tracing for the benchmark. Every span is recorded from
// the benchmark's own code, around calls into a layer's public interface:
//
//   workload -> job (api::Engine::Submit) -> DFS call   (TracingFileSystem)
//                                         -> user map   (traced Mapper)
//                                              -> emit  (timing OutputCollector)
//                                         -> user reduce (traced Reducer)
//
// Spans are kept in memory and written out once, as Chrome trace-event JSON
// (opens in Perfetto or chrome://tracing). Per-call user and DFS intervals
// are kept only until their job ends: they feed the union that defines the
// engine's self time, and are then folded into per-job totals.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/job_conf.h"
#include "dfs/file_system.h"

namespace m3r::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// One finished span. `calls` and `child_ns` carry the aggregate a
/// task-level span stands for (Map calls, emit time inside them, ...).
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  int job = 0;
  uint32_t tid = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t calls = 0;
  int64_t busy_ns = 0;      ///< summed call time (task spans)
  int64_t child_calls = 0;  ///< nested child calls (emit)
  int64_t child_ns = 0;     ///< summed time of nested children (emit, ...)
  int64_t bytes = 0;     ///< DFS bytes moved
};

/// Per-job totals of the traced layers, filled when the job span closes.
struct LayerTotals {
  int64_t dfs_calls = 0;
  int64_t dfs_busy_ns = 0;
  int64_t dfs_read_bytes = 0;
  int64_t dfs_write_bytes = 0;
  int64_t map_calls = 0;
  int64_t map_busy_ns = 0;
  int64_t emit_calls = 0;
  int64_t emit_busy_ns = 0;
  int64_t reduce_calls = 0;
  int64_t reduce_busy_ns = 0;
  int64_t reduce_child_ns = 0;  ///< values iterator + reduce output collect
  int64_t submit_ns = 0;
  int64_t engine_self_ns = 0;  ///< submit minus union of child spans

  void Add(const LayerTotals& o);
};

/// Process-wide span store. At most one is active; the traced wrappers and
/// the DFS decorator find it through Active() and record nothing when no
/// tracer is active or the calling thread is suppressed (the benchmark's
/// own oracle reads and output deletes).
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer* Active();

  /// Opens the root span of one workload rep. Nothing is recorded outside
  /// it. EndWorkload returns the DFS calls made between jobs (background
  /// checkpoint spills), which belong to no job.
  void BeginWorkload(const std::string& name);
  LayerTotals EndWorkload();

  /// Brackets one Engine::Submit. EndJob folds the job's intervals into
  /// LayerTotals and returns them.
  void BeginJob(const std::string& job_name);
  LayerTotals EndJob();

  /// Recording entry points for the wrappers (any thread).
  void RecordDfsCall(const char* name, int64_t start, int64_t end,
                     int64_t read_bytes, int64_t write_bytes);
  void RecordWriter(int job, int64_t open_ns, int64_t close_ns,
                    const std::vector<Interval>& appends, int64_t busy_ns,
                    int64_t bytes);
  void RecordTask(bool is_map, int job, const std::vector<Interval>& calls,
                  int64_t busy_ns, int64_t child_calls, int64_t child_ns);

  int CurrentJob() const { return current_job_.load(std::memory_order_relaxed); }

  /// Writes every span as Chrome trace-event JSON, with `metadata` (a JSON
  /// object) under "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

  /// Suppresses recording on the calling thread while alive.
  class Suppress {
   public:
    Suppress();
    ~Suppress();
    Suppress(const Suppress&) = delete;
    Suppress& operator=(const Suppress&) = delete;

   private:
    bool previous_;
  };
  static bool Suppressed();

 private:
  uint32_t ThreadId();
  int64_t NextId() { return next_id_++; }
  /// Stores `span` with a fresh id and the calling thread's id; past
  /// kMaxSpans it is only counted as dropped. Caller holds mu_.
  void PushSpanLocked(Span span);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  /// The running job's user/DFS call intervals (cleared at EndJob).
  std::vector<Interval> job_intervals_;
  LayerTotals job_totals_;
  LayerTotals between_jobs_;
  Span job_span_;
  Span workload_span_;
  bool in_workload_ = false;
  int64_t dropped_spans_ = 0;
  int64_t next_id_ = 1;
  int job_counter_ = 0;
  std::atomic<int> current_job_{0};
  std::vector<std::pair<std::thread::id, uint32_t>> tids_;
};

/// Timing decorator for the engine's base file system: every call is a DFS
/// span; writers report their Append calls at Close.
std::shared_ptr<dfs::FileSystem> MakeTracingFileSystem(
    std::shared_ptr<dfs::FileSystem> inner);

/// Rewrites a job's mapper and reducer classes (including MultipleInputs
/// per-path mappers) to traced delegating wrappers registered under new
/// names. A wrapper carries ImmutableOutput exactly when the wrapped class
/// does, so the engine takes the same clone/alias decisions. The combiner
/// is left alone: under hash-combine it runs inside emit.
void TraceJob(api::JobConf* job);

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_TRACING_H_

#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "api/class_registry.h"
#include "api/extensions.h"
#include "api/mr_api.h"
#include "common/logging.h"

namespace m3r::perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
thread_local bool t_suppressed = false;

/// Spans kept for the Chrome trace; past this only the totals grow.
constexpr size_t kMaxSpans = 200000;

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t UnionLength(std::vector<Interval>* intervals, int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cur_start = lo;
  int64_t cur_end = lo;
  for (const Interval& iv : *intervals) {
    const int64_t s = std::max(iv.start, lo);
    const int64_t e = std::min(iv.end, hi);
    if (e <= s) continue;
    if (s > cur_end) {
      covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  covered += cur_end - cur_start;
  return covered;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void LayerTotals::Add(const LayerTotals& o) {
  dfs_calls += o.dfs_calls;
  dfs_busy_ns += o.dfs_busy_ns;
  dfs_read_bytes += o.dfs_read_bytes;
  dfs_write_bytes += o.dfs_write_bytes;
  map_calls += o.map_calls;
  map_busy_ns += o.map_busy_ns;
  emit_calls += o.emit_calls;
  emit_busy_ns += o.emit_busy_ns;
  reduce_calls += o.reduce_calls;
  reduce_busy_ns += o.reduce_busy_ns;
  reduce_child_ns += o.reduce_child_ns;
  submit_ns += o.submit_ns;
  engine_self_ns += o.engine_self_ns;
}

Tracer::Tracer() {
  Tracer* expected = nullptr;
  M3R_CHECK(g_active.compare_exchange_strong(expected, this))
      << "only one tracer may be active";
}

Tracer::~Tracer() { g_active.store(nullptr); }

Tracer* Tracer::Active() { return g_active.load(std::memory_order_acquire); }

Tracer::Suppress::Suppress() : previous_(t_suppressed) { t_suppressed = true; }
Tracer::Suppress::~Suppress() { t_suppressed = previous_; }
bool Tracer::Suppressed() { return t_suppressed; }

uint32_t Tracer::ThreadId() {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& [id, small] : tids_) {
    if (id == self) return small;
  }
  tids_.emplace_back(self, static_cast<uint32_t>(tids_.size()));
  return tids_.back().second;
}

void Tracer::BeginWorkload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  workload_span_ = Span{};
  workload_span_.name = "workload:" + name;
  workload_span_.id = NextId();
  workload_span_.tid = ThreadId();
  workload_span_.start = NowNs();
  between_jobs_ = LayerTotals{};
  in_workload_ = true;
}

LayerTotals Tracer::EndWorkload() {
  std::lock_guard<std::mutex> lock(mu_);
  workload_span_.end = NowNs();
  spans_.push_back(workload_span_);
  in_workload_ = false;
  return between_jobs_;
}

void Tracer::BeginJob(const std::string& job_name) {
  std::lock_guard<std::mutex> lock(mu_);
  job_span_ = Span{};
  job_span_.name = "job:" + job_name;
  job_span_.id = NextId();
  job_span_.parent = workload_span_.id;
  job_span_.job = ++job_counter_;
  job_span_.tid = ThreadId();
  job_intervals_.clear();
  job_totals_ = LayerTotals{};
  job_span_.start = NowNs();
  current_job_.store(job_span_.job, std::memory_order_relaxed);
}

LayerTotals Tracer::EndJob() {
  std::lock_guard<std::mutex> lock(mu_);
  job_span_.end = NowNs();
  current_job_.store(0, std::memory_order_relaxed);
  LayerTotals totals = job_totals_;
  totals.submit_ns = job_span_.end - job_span_.start;
  totals.engine_self_ns =
      totals.submit_ns -
      UnionLength(&job_intervals_, job_span_.start, job_span_.end);
  job_intervals_.clear();
  job_intervals_.shrink_to_fit();
  spans_.push_back(job_span_);
  return totals;
}

void Tracer::RecordDfsCall(const char* name, int64_t start, int64_t end,
                           int64_t read_bytes, int64_t write_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_workload_) return;
  const int job = current_job_.load(std::memory_order_relaxed);
  LayerTotals& totals = job != 0 ? job_totals_ : between_jobs_;
  totals.dfs_calls += 1;
  totals.dfs_busy_ns += end - start;
  totals.dfs_read_bytes += read_bytes;
  totals.dfs_write_bytes += write_bytes;
  if (job != 0) job_intervals_.push_back({start, end});
  Span span;
  span.name = name;
  span.parent = job != 0 ? job_span_.id : workload_span_.id;
  span.job = job;
  span.start = start;
  span.end = end;
  span.calls = 1;
  span.busy_ns = end - start;
  span.bytes = read_bytes + write_bytes;
  PushSpanLocked(std::move(span));
}

void Tracer::PushSpanLocked(Span span) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  span.id = NextId();
  span.tid = ThreadId();
  spans_.push_back(std::move(span));
}

void Tracer::RecordWriter(int job, int64_t open_ns, int64_t close_ns,
                          const std::vector<Interval>& appends,
                          int64_t busy_ns, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_workload_) return;
  const bool live = job != 0 && job == current_job_.load();
  LayerTotals& totals = live ? job_totals_ : between_jobs_;
  totals.dfs_calls += static_cast<int64_t>(appends.size());
  totals.dfs_busy_ns += busy_ns;
  totals.dfs_write_bytes += bytes;
  if (live) {
    job_intervals_.insert(job_intervals_.end(), appends.begin(),
                          appends.end());
  }
  Span span;
  span.name = "dfs.write";
  span.parent = live ? job_span_.id : workload_span_.id;
  span.job = live ? job : 0;
  span.start = open_ns;
  span.end = close_ns;
  span.calls = static_cast<int64_t>(appends.size());
  span.busy_ns = busy_ns;
  span.bytes = bytes;
  PushSpanLocked(std::move(span));
}

void Tracer::RecordTask(bool is_map, int job,
                        const std::vector<Interval>& calls, int64_t busy_ns,
                        int64_t child_calls, int64_t child_ns) {
  if (calls.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_workload_ || job == 0 || job != current_job_.load()) return;
  const auto n = static_cast<int64_t>(calls.size());
  if (is_map) {
    job_totals_.map_calls += n;
    job_totals_.map_busy_ns += busy_ns;
    job_totals_.emit_calls += child_calls;
    job_totals_.emit_busy_ns += child_ns;
  } else {
    job_totals_.reduce_calls += n;
    job_totals_.reduce_busy_ns += busy_ns;
    job_totals_.reduce_child_ns += child_ns;
  }
  job_intervals_.insert(job_intervals_.end(), calls.begin(), calls.end());
  Span span;
  span.name = is_map ? "user.map" : "user.reduce";
  span.parent = job_span_.id;
  span.job = job;
  span.start = calls.front().start;
  span.end = calls.back().end;
  span.calls = n;
  span.busy_ns = busy_ns;
  span.child_calls = child_calls;
  span.child_ns = child_ns;
  PushSpanLocked(std::move(span));
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start < origin) origin = s.start;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
      << ", \"droppedSpans\": " << dropped_spans_ << ", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find_first_of(".:"));
    std::snprintf(
        buf, sizeof(buf),
        "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
        "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
        "\"job\": %d, \"calls\": %lld, \"busy_ms\": %.6f, "
        "\"child_calls\": %lld, \"child_ms\": %.6f, \"bytes\": %lld}}",
        s.tid, static_cast<double>(s.start - origin) / 1e3,
        static_cast<double>(s.end - s.start) / 1e3,
        static_cast<long long>(s.id), static_cast<long long>(s.parent), s.job,
        static_cast<long long>(s.calls), static_cast<double>(s.busy_ns) / 1e6,
        static_cast<long long>(s.child_calls),
        static_cast<double>(s.child_ns) / 1e6,
        static_cast<long long>(s.bytes));
    out << "  {\"name\": \"" << JsonEscape(s.name) << "\", \"cat\": \""
        << JsonEscape(cat) << "\", " << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------ DFS

namespace {

bool Recording() { return Tracer::Active() != nullptr && !Tracer::Suppressed(); }

/// Times Append/Close and reports them as one dfs.write span at Close.
class TracingWriter : public dfs::FileWriter {
 public:
  TracingWriter(std::unique_ptr<dfs::FileWriter> inner, int job,
                int64_t open_ns, bool record)
      : inner_(std::move(inner)), job_(job), open_ns_(open_ns),
        record_(record) {}

  Status Append(std::string_view data) override {
    const int64_t t0 = NowNs();
    Status st = inner_->Append(data);
    Note(t0, NowNs(), static_cast<int64_t>(data.size()));
    return st;
  }

  Status Close() override {
    const int64_t t0 = NowNs();
    Status st = inner_->Close();
    const int64_t t1 = NowNs();
    Note(t0, t1, 0);
    if (record_) {
      if (Tracer* tracer = Tracer::Active()) {
        tracer->RecordWriter(job_, open_ns_, t1, calls_, busy_ns_, bytes_);
      }
    }
    record_ = false;
    return st;
  }

  uint64_t BytesWritten() const override { return inner_->BytesWritten(); }

 private:
  void Note(int64_t t0, int64_t t1, int64_t bytes) {
    if (!record_) return;
    calls_.push_back({t0, t1});
    busy_ns_ += t1 - t0;
    bytes_ += bytes;
  }

  std::unique_ptr<dfs::FileWriter> inner_;
  int job_;
  int64_t open_ns_;
  bool record_;
  std::vector<Interval> calls_;
  int64_t busy_ns_ = 0;
  int64_t bytes_ = 0;
};

class TracingFileSystem : public dfs::FileSystem {
 public:
  explicit TracingFileSystem(std::shared_ptr<dfs::FileSystem> inner)
      : inner_(std::move(inner)) {}

  Result<std::unique_ptr<dfs::FileWriter>> Create(
      const std::string& path, const dfs::CreateOptions& opts) override {
    const int64_t t0 = NowNs();
    auto writer = inner_->Create(path, opts);
    const int64_t t1 = NowNs();
    const bool record = Recording();
    if (record) Tracer::Active()->RecordDfsCall("dfs.create", t0, t1, 0, 0);
    if (!writer.ok()) return writer.status();
    const int job = record ? Tracer::Active()->CurrentJob() : 0;
    return std::unique_ptr<dfs::FileWriter>(
        new TracingWriter(writer.take(), job, t0, record));
  }

  Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) override {
    const int64_t t0 = NowNs();
    auto content = inner_->Open(path);
    const int64_t t1 = NowNs();
    if (Recording()) {
      const int64_t bytes =
          content.ok() ? static_cast<int64_t>((*content)->size()) : 0;
      Tracer::Active()->RecordDfsCall("dfs.open", t0, t1, bytes, 0);
    }
    return content;
  }

  bool Exists(const std::string& path) override {
    return Timed("dfs.exists", [&] { return inner_->Exists(path); });
  }
  Result<dfs::FileStatus> GetFileStatus(const std::string& path) override {
    return Timed("dfs.stat", [&] { return inner_->GetFileStatus(path); });
  }
  Result<std::vector<dfs::FileStatus>> ListStatus(
      const std::string& dir) override {
    return Timed("dfs.list", [&] { return inner_->ListStatus(dir); });
  }
  Status Mkdirs(const std::string& path) override {
    return Timed("dfs.mkdirs", [&] { return inner_->Mkdirs(path); });
  }
  Status Delete(const std::string& path, bool recursive) override {
    return Timed("dfs.delete",
                 [&] { return inner_->Delete(path, recursive); });
  }
  Status Rename(const std::string& src, const std::string& dst) override {
    return Timed("dfs.rename", [&] { return inner_->Rename(src, dst); });
  }
  Result<std::vector<dfs::BlockLocation>> GetBlockLocations(
      const std::string& path) override {
    return Timed("dfs.blocks",
                 [&] { return inner_->GetBlockLocations(path); });
  }
  uint64_t BlockSize() const override { return inner_->BlockSize(); }

 private:
  template <typename F>
  auto Timed(const char* name, F&& call) -> decltype(call()) {
    const int64_t t0 = NowNs();
    auto result = call();
    const int64_t t1 = NowNs();
    if (Recording()) Tracer::Active()->RecordDfsCall(name, t0, t1, 0, 0);
    return result;
  }

  std::shared_ptr<dfs::FileSystem> inner_;
};

// ------------------------------------------------------------ user code

/// Times each Collect into `calls`/`busy_ns`.
class TimedCollector : public api::OutputCollector {
 public:
  TimedCollector(api::OutputCollector& inner, int64_t* calls,
                 int64_t* busy_ns)
      : inner_(inner), calls_(calls), busy_ns_(busy_ns) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    const int64_t t0 = NowNs();
    inner_.Collect(key, value);
    *busy_ns_ += NowNs() - t0;
    ++*calls_;
  }

 private:
  api::OutputCollector& inner_;
  int64_t* calls_;
  int64_t* busy_ns_;
};

/// Times the engine's value iteration inside a user Reduce call.
class TimedValues : public api::ValuesIterator {
 public:
  TimedValues(api::ValuesIterator& inner, int64_t* busy_ns)
      : inner_(inner), busy_ns_(busy_ns) {}
  bool HasNext() override {
    const int64_t t0 = NowNs();
    const bool more = inner_.HasNext();
    *busy_ns_ += NowNs() - t0;
    return more;
  }
  api::WritablePtr Next() override {
    const int64_t t0 = NowNs();
    api::WritablePtr v = inner_.Next();
    *busy_ns_ += NowNs() - t0;
    return v;
  }

 private:
  api::ValuesIterator& inner_;
  int64_t* busy_ns_;
};

/// Per-task accumulator shared by the map and reduce wrappers. One wrapper
/// instance is one task (engines create user classes per task), so the
/// calls are collected without locking and reported once at Close.
class TaskRecorder {
 public:
  explicit TaskRecorder(bool is_map)
      : is_map_(is_map),
        job_(Tracer::Active() ? Tracer::Active()->CurrentJob() : 0) {}
  ~TaskRecorder() { Flush(); }
  TaskRecorder(const TaskRecorder&) = delete;
  TaskRecorder& operator=(const TaskRecorder&) = delete;

  void Call(int64_t t0, int64_t t1) {
    calls_.push_back({t0, t1});
    busy_ns_ += t1 - t0;
  }
  void Flush() {
    if (Tracer* tracer = Tracer::Active(); tracer != nullptr && job_ != 0) {
      tracer->RecordTask(is_map_, job_, calls_, busy_ns_, child_calls,
                         child_ns);
    }
    calls_.clear();
    busy_ns_ = 0;
    child_calls = 0;
    child_ns = 0;
  }

  int64_t child_calls = 0;
  int64_t child_ns = 0;

 private:
  bool is_map_;
  int job_;
  std::vector<Interval> calls_;
  int64_t busy_ns_ = 0;
};

/// The wrapped user object, created on first use: a registry factory runs
/// under the registry's lock, so the wrapper's factory cannot create the
/// inner object itself.
template <typename Base>
class LazyInner {
 public:
  explicit LazyInner(std::string name) : name_(std::move(name)) {}
  Base& operator*() {
    if (obj_ == nullptr) {
      obj_ = api::ObjectRegistry<Base>::Instance().Create(name_);
    }
    return *obj_;
  }

 private:
  std::string name_;
  std::shared_ptr<Base> obj_;
};

class TracedMapper : public api::mapred::Mapper {
 public:
  explicit TracedMapper(std::string inner) : inner_(std::move(inner)) {}
  void Configure(const api::JobConf& conf) override {
    (*inner_).Configure(conf);
  }
  void Map(const api::WritablePtr& key, const api::WritablePtr& value,
           api::OutputCollector& output, api::Reporter& reporter) override {
    api::mapred::Mapper& inner = *inner_;
    TimedCollector emit(output, &task_.child_calls, &task_.child_ns);
    const int64_t t0 = NowNs();
    inner.Map(key, value, emit, reporter);
    task_.Call(t0, NowNs());
  }
  void Close() override {
    (*inner_).Close();
    task_.Flush();
  }

 private:
  LazyInner<api::mapred::Mapper> inner_;
  TaskRecorder task_{/*is_map=*/true};
};

class TracedImmutableMapper final : public TracedMapper,
                                    public api::ImmutableOutput {
 public:
  using TracedMapper::TracedMapper;
};

class TracedReducer : public api::mapred::Reducer {
 public:
  explicit TracedReducer(std::string inner) : inner_(std::move(inner)) {}
  void Configure(const api::JobConf& conf) override {
    (*inner_).Configure(conf);
  }
  void Reduce(const api::WritablePtr& key, api::ValuesIterator& values,
              api::OutputCollector& output,
              api::Reporter& reporter) override {
    api::mapred::Reducer& inner = *inner_;
    TimedValues timed_values(values, &task_.child_ns);
    int64_t out_calls = 0;
    TimedCollector out(output, &out_calls, &task_.child_ns);
    const int64_t t0 = NowNs();
    inner.Reduce(key, timed_values, out, reporter);
    task_.Call(t0, NowNs());
  }
  void Close() override {
    (*inner_).Close();
    task_.Flush();
  }

 private:
  LazyInner<api::mapred::Reducer> inner_;
  TaskRecorder task_{/*is_map=*/false};
};

class TracedImmutableReducer final : public TracedReducer,
                                     public api::ImmutableOutput {
 public:
  using TracedReducer::TracedReducer;
};

/// Registers the traced wrapper of `inner` in the registry for `Base` and
/// returns its name. Whether the wrapped class promises ImmutableOutput is
/// read once here, outside any registry lock, and picks the wrapper type.
template <typename Base, typename Plain, typename Immutable>
std::string RegisterTraced(const std::string& inner) {
  const std::string name = "perfbench.traced." + inner;
  auto& registry = api::ObjectRegistry<Base>::Instance();
  if (registry.Contains(name)) return name;
  const bool immutable = api::IsImmutableOutput(registry.Create(inner).get());
  registry.Register(name, [inner, immutable]() -> std::shared_ptr<Base> {
    if (immutable) return std::make_shared<Immutable>(inner);
    return std::make_shared<Plain>(inner);
  });
  return name;
}

std::string TraceMapper(const std::string& inner) {
  return RegisterTraced<api::mapred::Mapper, TracedMapper,
                        TracedImmutableMapper>(inner);
}

std::string TraceReducer(const std::string& inner) {
  return RegisterTraced<api::mapred::Reducer, TracedReducer,
                        TracedImmutableReducer>(inner);
}

/// MultipleInputs keeps "path;format;mapper" entries under this key.
constexpr char kMultiInputSpecs[] = "mapreduce.input.multipleinputs.dir.specs";

}  // namespace

std::shared_ptr<dfs::FileSystem> MakeTracingFileSystem(
    std::shared_ptr<dfs::FileSystem> inner) {
  return std::make_shared<TracingFileSystem>(std::move(inner));
}

void TraceJob(api::JobConf* job) {
  M3R_CHECK(!job->UsesNewApiMapper() && !job->UsesNewApiReducer())
      << "tracing wraps old-API (mapred) user classes only";
  if (job->Contains(api::conf::kMapredMapper)) {
    job->SetMapperClass(TraceMapper(job->Get(api::conf::kMapredMapper)));
  }
  if (job->Contains(api::conf::kMapredReducer)) {
    job->SetReducerClass(TraceReducer(job->Get(api::conf::kMapredReducer)));
  }
  if (job->Contains(kMultiInputSpecs)) {
    std::vector<std::string> specs;
    for (const std::string& spec : job->GetStrings(kMultiInputSpecs)) {
      const size_t cut = spec.rfind(';');
      M3R_CHECK(cut != std::string::npos) << "bad MultipleInputs spec";
      specs.push_back(spec.substr(0, cut + 1) +
                      TraceMapper(spec.substr(cut + 1)));
    }
    job->SetStrings(kMultiInputSpecs, specs);
  }
}

}  // namespace m3r::perfbench

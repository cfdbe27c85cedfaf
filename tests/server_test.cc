// Server mode (paper §5.3): typed Submission/JobTicket submission,
// asynchronous status/progress/counter polling, queues, drain-vs-abort
// shutdown, and the BigSheets-style drop-in replacement of the Hadoop
// server by the M3R server. Scheduling behavior (fair share, preemption,
// admission control) is exercised in sched_stress_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/class_registry.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "m3r/server.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::engine {
namespace {

sim::ClusterSpec SmallCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

std::shared_ptr<dfs::FileSystem> FsWithText() {
  auto fs = dfs::MakeSimDfs(4, 16 * 1024);
  M3R_CHECK_OK(workloads::GenerateText(*fs, "/in", 64 * 1024, 2, 3));
  return fs;
}

api::Submission WordCount(const std::string& out,
                          const std::string& queue = "default") {
  api::Submission sub;
  sub.queue = queue;
  sub.conf = workloads::MakeWordCountJob("/in", out, 2, true);
  return sub;
}

TEST(JobServerTest, SubmitPollWait) {
  auto fs = FsWithText();
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  auto ticket = server.Submit(WordCount("/out"));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  api::JobResult result = ticket->Wait();
  EXPECT_TRUE(result.ok()) << result.status.ToString();

  api::TicketInfo info = ticket->Poll();
  EXPECT_EQ(info.phase, api::TicketPhase::kSucceeded);
  EXPECT_DOUBLE_EQ(info.progress, 1.0);
  EXPECT_EQ(info.attempts, 1);
  // Counters were propagated to the protocol surface, and the scheduler
  // stamped its job-end metrics.
  EXPECT_GT(result.counters.Get(api::counters::kTaskGroup,
                                api::counters::kMapInputRecords),
            0);
  EXPECT_EQ(result.metrics.at("sched_attempts"), 1);
  EXPECT_TRUE(fs->Exists("/out/_SUCCESS"));
}

TEST(JobServerTest, QueuesAreTrackedInStats) {
  auto fs = FsWithText();
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  auto t1 = server.Submit(WordCount("/o1", "analytics"));
  auto t2 = server.Submit(WordCount("/o2", "etl"));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_LT(t1->id(), t2->id());
  EXPECT_EQ(t1->queue(), "analytics");
  ASSERT_TRUE(t1->Wait().ok());
  ASSERT_TRUE(t2->Wait().ok());

  bool saw_analytics = false, saw_etl = false;
  for (const auto& q : server.Stats()) {
    if (q.queue == "analytics") {
      saw_analytics = true;
      EXPECT_EQ(q.completed, 1);
      EXPECT_GT(q.completed_sim_seconds, 0);
    }
    if (q.queue == "etl") {
      saw_etl = true;
      EXPECT_EQ(q.completed, 1);
    }
    EXPECT_EQ(q.queued, 0);
    EXPECT_EQ(q.running, 0);
  }
  EXPECT_TRUE(saw_analytics);
  EXPECT_TRUE(saw_etl);
  EXPECT_TRUE(server.ActiveTickets().empty());
}

/// Opened by the test that holds GatedWordCountMapper's job.
std::atomic<bool> map_gate_open{true};

/// Word-count mapper that waits at every map call until the gate opens,
/// so its job stays running while a test looks at the server.
class GatedWordCountMapper : public workloads::WordCountMapperImmutable {
 public:
  static constexpr const char* kClassName = "GatedWordCountMapper";
  void Map(const api::WritablePtr& key, const api::WritablePtr& value,
           api::OutputCollector& output, api::Reporter& reporter) override {
    while (!map_gate_open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    workloads::WordCountMapperImmutable::Map(key, value, output, reporter);
  }
};

M3R_REGISTER_CLASS_AS(api::mapred::Mapper, GatedWordCountMapper,
                      GatedWordCountMapper)

TEST(JobServerTest, ActiveTicketsListsOneQueuesQueuedAndRunningJobs) {
  auto fs = FsWithText();
  JobServer::Options options;
  options.max_inflight = 1;
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}),
      options);
  auto finished = server.Submit(WordCount("/finished", "q"));
  ASSERT_TRUE(finished.ok());
  ASSERT_TRUE(finished->Wait().ok());

  map_gate_open = false;
  api::Submission gated = WordCount("/running", "q");
  gated.conf.SetMapperClass(GatedWordCountMapper::kClassName);
  auto running = server.Submit(std::move(gated));
  ASSERT_TRUE(running.ok());
  while (running->Poll().phase != api::TicketPhase::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = server.Submit(WordCount("/queued", "q"));
  auto other = server.Submit(WordCount("/other", "other"));
  ASSERT_TRUE(queued.ok() && other.ok());

  EXPECT_EQ(server.ActiveTickets("q"),
            (std::vector<int64_t>{running->id(), queued->id()}));
  EXPECT_EQ(server.ActiveTickets("other"),
            std::vector<int64_t>{other->id()});
  EXPECT_EQ(server.ActiveTickets(),
            (std::vector<int64_t>{running->id(), queued->id(), other->id()}));

  map_gate_open = true;
  for (auto* t : {&*running, &*queued, &*other}) EXPECT_TRUE(t->Wait().ok());
  EXPECT_TRUE(server.ActiveTickets().empty());
}

TEST(JobServerTest, FailedJobReportsFailedPhase) {
  auto fs = FsWithText();
  ASSERT_TRUE(fs->Mkdirs("/occupied").ok());
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  auto ticket = server.Submit(WordCount("/occupied"));
  ASSERT_TRUE(ticket.ok());
  EXPECT_FALSE(ticket->Wait().ok());
  EXPECT_EQ(ticket->Poll().phase, api::TicketPhase::kFailed);
}

TEST(JobServerTest, InvalidSubmissionIsRejectedTyped) {
  auto fs = FsWithText();
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  api::Submission bad = WordCount("/never");
  bad.queue = "no spaces allowed";
  auto ticket = server.Submit(std::move(bad));
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsInvalidArgument())
      << ticket.status().ToString();
}

TEST(JobServerTest, BadKnobIsRejectedBeforeQueueing) {
  auto fs = FsWithText();
  JobServer server(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  for (auto [key, value] : {std::pair{api::conf::kJobTimeoutSec, "soon"},
                            std::pair{"m3r.shufle.flush.bytes", "0"}}) {
    api::Submission bad = WordCount("/never");
    bad.conf.Set(key, value);
    auto ticket = server.Submit(std::move(bad));
    ASSERT_FALSE(ticket.ok()) << key;
    EXPECT_TRUE(ticket.status().IsInvalidArgument())
        << ticket.status().ToString();
    EXPECT_NE(ticket.status().ToString().find(key), std::string::npos)
        << ticket.status().ToString();
  }
  EXPECT_TRUE(server.ActiveTickets().empty());
  EXPECT_FALSE(fs->Exists("/never"));
}

TEST(JobServerTest, TenantCacheClampDoesNotLeakIntoTheNextTenant) {
  auto fs = FsWithText();
  auto m3r = std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()});
  JobServer::Options options;
  options.tenant_quotas["quoted"] = 0.5;
  JobServer server(m3r, options);
  auto run = [&](const std::string& tenant, const std::string& out) {
    api::Submission sub = WordCount(out);
    sub.tenant = tenant;
    sub.conf.SetInt(api::conf::kMemoryBudgetMb, 64);
    auto ticket = server.Submit(std::move(sub));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    api::JobResult result = ticket->Wait();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
  };
  run("quoted", "/quoted");
  EXPECT_EQ(m3r->governor().ConsumerBudget("cache"), uint64_t{32} << 20);
  // The quoted tenant has left; an unquoted tenant alone is unconstrained.
  run("free", "/free");
  EXPECT_EQ(m3r->governor().ConsumerBudget("cache"), uint64_t{64} << 20);
}

TEST(JobServerTest, ShutdownDrainsQueue) {
  auto fs = FsWithText();
  auto server = std::make_unique<JobServer>(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  auto t1 = server->Submit(WordCount("/d1"));
  auto t2 = server->Submit(WordCount("/d2"));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  server->Shutdown(JobServer::DrainMode::kDrain);  // finishes both first
  EXPECT_EQ(t1->Poll().phase, api::TicketPhase::kSucceeded);
  EXPECT_EQ(t2->Poll().phase, api::TicketPhase::kSucceeded);
  EXPECT_TRUE(fs->Exists("/d1/_SUCCESS"));
  EXPECT_TRUE(fs->Exists("/d2/_SUCCESS"));
}

TEST(JobServerTest, AbortShutdownUnderLoadCancelsPromptly) {
  auto fs = FsWithText();
  auto server = std::make_unique<JobServer>(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  std::vector<api::JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    auto t = server->Submit(WordCount("/abort" + std::to_string(i)));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  server->Shutdown(JobServer::DrainMode::kAbort);
  // Every ticket is terminal (no leaked threads / hung waiters), and the
  // backlog was cancelled rather than run to completion.
  int cancelled = 0;
  for (auto& t : tickets) {
    ASSERT_TRUE(t.Done());
    api::TicketInfo info = t.Poll();
    EXPECT_TRUE(api::IsTerminal(info.phase));
    if (info.phase == api::TicketPhase::kCancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 4);  // at most the in-flight ones could finish
  // Submission after shutdown fails typed, not crashing.
  auto late = server->Submit(WordCount("/late"));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsFailedPrecondition());
}

TEST(JobServerTest, CancelQueuedTicketNeverRuns) {
  auto fs = FsWithText();
  auto server = std::make_unique<JobServer>(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  auto first = server->Submit(WordCount("/c0"));
  ASSERT_TRUE(first.ok());
  auto queued = server->Submit(WordCount("/c1"));
  ASSERT_TRUE(queued.ok());
  queued->Cancel();
  // Cancellation may race the dispatcher: the job is either cancelled
  // while queued (never runs) or cancelled mid-run — never successful.
  EXPECT_FALSE(queued->Wait().ok());
  EXPECT_EQ(queued->Poll().phase, api::TicketPhase::kCancelled);
  EXPECT_TRUE(first->Wait().ok());
  server->Shutdown();
  EXPECT_FALSE(fs->Exists("/c1/_SUCCESS"));
}

TEST(ServerRegistryTest, M3RServerReplacesHadoopServerOnSamePort) {
  // The §5.3 BigSheets scenario: stop the Hadoop server, start the M3R
  // server on the same port; the (unmodified) client keeps submitting to
  // the same port.
  constexpr int kPort = 9001;
  auto fs = FsWithText();

  auto hadoop_server = std::make_shared<JobServer>(
      std::make_shared<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{SmallCluster(), 0}));
  ServerRegistry::Instance().Bind(kPort, hadoop_server);

  api::JobConf client_job =
      workloads::MakeWordCountJob("/in", "/via-hadoop", 2, true);
  client_job.SetInt(kJobTrackerPortKey, kPort);
  auto t1 = SubmitViaPort(client_job);
  ASSERT_TRUE(t1.ok());
  api::JobResult r1 = t1->Wait();
  ASSERT_TRUE(r1.ok());

  // "We stopped the running Hadoop server and started the M3R server on
  // the same port."
  hadoop_server->Shutdown();
  auto m3r_server = std::make_shared<JobServer>(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  ServerRegistry::Instance().Bind(kPort, m3r_server);

  client_job.SetOutputPath("/via-m3r");
  auto t2 = SubmitViaPort(client_job);
  ASSERT_TRUE(t2.ok());
  api::JobResult r2 = t2->Wait();
  ASSERT_TRUE(r2.ok());
  // Same client, same port, much cheaper engine.
  EXPECT_LT(r2.sim_seconds, r1.sim_seconds);
  ServerRegistry::Instance().Unbind(kPort);
}

TEST(ServerRegistryTest, CoexistingServersOnDifferentPorts) {
  // "They can then coexist, and a client can dynamically choose which
  // server to submit a job to by altering the appropriate port setting."
  auto fs = FsWithText();
  auto hadoop_server = std::make_shared<JobServer>(
      std::make_shared<hadoop::HadoopEngine>(
          fs, hadoop::HadoopEngineOptions{SmallCluster(), 0}));
  auto m3r_server = std::make_shared<JobServer>(
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()}));
  ServerRegistry::Instance().Bind(9001, hadoop_server);
  ServerRegistry::Instance().Bind(9101, m3r_server);

  api::JobConf job = workloads::MakeWordCountJob("/in", "/p1", 1, true);
  job.SetInt(kJobTrackerPortKey, 9101);
  auto t = SubmitViaPort(job);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Wait().ok());
  EXPECT_TRUE(hadoop_server->ActiveTickets().empty());

  job.SetOutputPath("/p2");
  job.SetInt(kJobTrackerPortKey, 9001);
  auto t2 = SubmitViaPort(job);
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t2->Wait().ok());

  job.SetInt(kJobTrackerPortKey, 7777);  // nothing bound there
  EXPECT_FALSE(SubmitViaPort(job).ok());

  ServerRegistry::Instance().Unbind(9001);
  ServerRegistry::Instance().Unbind(9101);
}

TEST(JobServerTest, ProgressIsMonotonicallyObservable) {
  auto fs = FsWithText();
  auto engine =
      std::make_shared<M3REngine>(fs, M3REngineOptions{SmallCluster()});
  // Poll the job handle while the job runs, the way the server does.
  api::JobHandle handle = engine->SubmitAsync(
      workloads::MakeWordCountJob("/in", "/prog", 2, true));
  std::vector<double> seen;
  while (!handle.WaitFor(0.0005)) seen.push_back(handle.Progress());
  ASSERT_TRUE(handle.Wait().ok());
  seen.push_back(handle.Progress());
  EXPECT_DOUBLE_EQ(seen.back(), 1.0);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_GE(seen[i], 0.0);
    EXPECT_LE(seen[i], 1.0);
    if (i > 0) {
      EXPECT_GE(seen[i], seen[i - 1]) << "progress went backwards";
    }
  }
}

}  // namespace
}  // namespace m3r::engine

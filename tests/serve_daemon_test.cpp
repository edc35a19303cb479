/// Integration tests of the serving daemon (serve/daemon.hpp): a real
/// Daemon on a unix socket (plus one TCP ephemeral-port case), driven by
/// WireClient over the actual protocol — submit/subscribe/done round
/// trips, overload rejection shape, cancel idempotence, graceful drain.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "util/error.hpp"
#include "workflows/workflows.hpp"

namespace spmap {
namespace {

/// A bound daemon with run() on its own thread; drains on destruction.
class DaemonFixture {
 public:
  explicit DaemonFixture(DaemonOptions options) {
    if (options.endpoint.path.empty() && options.endpoint.host.empty()) {
      options.endpoint = Endpoint::parse(unique_socket_path());
    }
    daemon = std::make_unique<Daemon>(std::move(options));
    daemon->bind();
    io = std::thread([this] { exit_code = daemon->run(); });
  }

  ~DaemonFixture() {
    if (io.joinable()) {
      daemon->request_drain(0.0);
      io.join();
    }
  }

  int join() {
    io.join();
    return exit_code;
  }

  static std::string unique_socket_path() {
    static int counter = 0;
    return "unix:/tmp/spmap_daemon_test_" + std::to_string(::getpid()) +
           "_" + std::to_string(++counter) + ".sock";
  }

  std::unique_ptr<Daemon> daemon;
  std::thread io;
  int exit_code = -1;
};

Json submit_frame(std::size_t tasks = 12, std::uint64_t seed = 1) {
  Json generate = Json::object();
  generate.set("type", Json("sp"));
  generate.set("tasks", Json(tasks));
  generate.set("seed", Json(seed));
  Json frame = Json::object();
  frame.set("op", Json("submit"));
  frame.set("mapper", Json("spff"));
  frame.set("generate", std::move(generate));
  return frame;
}

TEST(ServeDaemon, SubmitSubscribeDoneRoundTrip) {
  DaemonFixture fixture({.workers = 2});
  WireClient client(fixture.daemon->endpoint());
  EXPECT_EQ(client.hello_info().at("proto").as_string(), kWireProtocol);

  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  frame.set("return_mapping", Json(true));
  frame.set("tag", Json(std::size_t{7}));
  client.send(frame);

  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(accepted->at("ok").as_bool()) << accepted->dump();
  EXPECT_EQ(accepted->at("tag").as_int(), 7);
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
  EXPECT_EQ(done->at("state").as_string(), "done");
  EXPECT_GT(done->at("makespan").as_double(), 0.0);
  EXPECT_TRUE(done->at("mapping").is_array());

  // status after the terminal event reports the same result.
  client.send(Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool());
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(),
                   done->at("makespan").as_double());
}

TEST(ServeDaemon, InlineGraphMatchesItsGenerateSpec) {
  // An inline graph is parsed straight from the request's Json value; it
  // must map exactly like the same graph sent as a generate spec. The
  // cache is off so both submits run the mapper.
  DaemonFixture fixture({.workers = 1, .cache_entries = 0});
  WireClient client(fixture.daemon->endpoint());
  const Json by_spec = submit_frame(40, 3);
  const TaskGraph tg = graph_from_generate_spec(by_spec.at("generate"));
  Json by_graph = Json::object();
  by_graph.set("op", Json("submit"));
  by_graph.set("mapper", Json("spff"));
  by_graph.set("graph", Json::parse(to_json(tg.dag, tg.attrs)));

  std::vector<Json> results;
  for (Json frame : {by_spec, by_graph}) {
    frame.set("subscribe", Json(true));
    frame.set("return_mapping", Json(true));
    client.send(frame);
    const auto accepted = client.recv(10000.0);
    ASSERT_TRUE(accepted.has_value());
    ASSERT_TRUE(accepted->at("ok").as_bool()) << accepted->dump();
    const auto done = client.recv_event("done", 30000.0);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->at("state").as_string(), "done") << done->dump();
    results.push_back(*done);
  }
  EXPECT_EQ(results[0].at("makespan").as_double(),
            results[1].at("makespan").as_double());
  EXPECT_EQ(results[0].at("mapping").dump(), results[1].at("mapping").dump());
}

std::string graph_bytes(const TaskGraph& tg) {
  return to_json(tg.dag, tg.attrs);
}

std::string generated_bytes(const char* spec) {
  return graph_bytes(graph_from_generate_spec(Json::parse(spec)));
}

TEST(ServeDaemon, GenerateSpecMatchesTheDirectGeneratorSequence) {
  // A wire generate spec materializes through WorkloadSpec on Rng(seed);
  // the bytes must equal the generators called directly on that rng.
  {
    Rng rng(7);
    TaskGraph want;
    want.dag = generate_sp_dag(40, rng);
    want.attrs = random_task_attrs(want.dag, rng);
    EXPECT_EQ(generated_bytes(R"({"type":"sp","tasks":40,"seed":7})"),
              graph_bytes(want));
    // A missing type defaults to sp.
    EXPECT_EQ(generated_bytes(R"({"tasks":40,"seed":7})"), graph_bytes(want));
  }
  {
    Rng rng(9);
    TaskGraph want;
    want.dag = add_random_edges(generate_sp_dag(60, rng), 12, rng);
    want.attrs = random_task_attrs(want.dag, rng);
    EXPECT_EQ(generated_bytes(
                  R"({"type":"almost-sp","tasks":60,"extra_edges":12,"seed":9})"),
              graph_bytes(want));
  }
  {
    Rng rng(3);
    const WorkflowInstance want =
        generate_workflow(WorkflowFamily::Soykb, 6, rng);
    EXPECT_EQ(generated_bytes(
                  R"({"type":"workflow","family":"soykb","width":6,"seed":3})"),
              to_json(want.dag, want.attrs));
  }
}

TEST(ServeDaemon, GenerateSpecRefusesFileKindsAndNegativeSeeds) {
  for (const char* spec : {R"({"type":"graph","path":"g.json"})",
                           R"({"type":"wfcommons","path":"w.json"})"}) {
    try {
      graph_from_generate_spec(Json::parse(spec));
      ADD_FAILURE() << "accepted " << spec;
    } catch (const Error& ex) {
      EXPECT_NE(std::string(ex.what()).find("server-side"), std::string::npos)
          << ex.what();
    }
  }
  EXPECT_THROW(graph_from_generate_spec(
                   Json::parse(R"({"type":"sp","tasks":10,"seed":-1})")),
               Error);

  // Over the wire the refusal is a bad_request answer.
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  Json frame = submit_frame();
  frame.set("generate", Json::parse(R"({"type":"graph","path":"g.json"})"));
  client.send(frame);
  const auto response = client.recv(10000.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool());
  EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
}

TEST(ServeDaemon, SubscribeAfterTerminalReplaysDone) {
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  // Poll status until terminal, then subscribe: the done event must be
  // replayed instead of never arriving.
  for (int i = 0; i < 600; ++i) {
    client.send(
        Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
    const auto status = client.recv(10000.0);
    ASSERT_TRUE(status.has_value() && status->at("ok").as_bool());
    if (status->at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  client.send(
      Json(Json::Object{{"op", Json("subscribe")}, {"job", Json(job)}}));
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool());
  const auto done = client.recv_event("done", 10000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
}

TEST(ServeDaemon, OverloadRejectionIsStructuredAndSurvivable) {
  // workers=1 + max_queued=1: one running, one queued, the rest refused.
  DaemonFixture fixture({.workers = 1, .max_queued = 1});
  WireClient client(fixture.daemon->endpoint());

  // An effectively endless anneal occupies the only worker; a second one
  // fills the queue slot.
  Json slow = submit_frame(24);
  slow.set("mapper", Json("anneal:iters=500000000"));
  slow.set("deadline_ms", Json(60000.0));
  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 2; ++i) {
    client.send(slow);
    const auto ok = client.recv(10000.0);
    ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool()) << ok->dump();
    jobs.push_back(static_cast<std::uint64_t>(ok->at("job").as_int()));
    if (i == 0) {
      // Wait for the worker to claim the first job before submitting the
      // second: until then it still occupies the queue slot and the
      // second submit would be shed as overload (seen under TSan, where
      // the worker is slow to dequeue).
      for (int poll = 0; poll < 1000; ++poll) {
        client.send(Json(
            Json::Object{{"op", Json("status")}, {"job", Json(jobs[0])}}));
        const auto status = client.recv(10000.0);
        ASSERT_TRUE(status.has_value() && status->at("ok").as_bool());
        if (status->at("state").as_string() == "running") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  // Low-priority traffic is shed first (graduated thresholds): rejected
  // with the structured overloaded error, connection intact.
  Json low = submit_frame();
  low.set("class", Json("low"));
  low.set("tag", Json("shed-me"));
  client.send(low);
  const auto rejected = client.recv(10000.0);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->at("ok").as_bool());
  EXPECT_EQ(rejected->at("error").at("code").as_string(), "overloaded");
  EXPECT_FALSE(rejected->at("error").at("message").as_string().empty());
  EXPECT_EQ(rejected->at("tag").as_string(), "shed-me");

  // Admission shed the request before the service saw it: only the two
  // accepted jobs were ever submitted.
  EXPECT_EQ(fixture.daemon->service_stats().submitted, 2u);

  // The connection survived: cancel both heavy jobs, twice (idempotent).
  for (const std::uint64_t job : jobs) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      client.send(
          Json(Json::Object{{"op", Json("cancel")}, {"job", Json(job)}}));
      const auto ok = client.recv(10000.0);
      ASSERT_TRUE(ok.has_value());
      EXPECT_TRUE(ok->at("ok").as_bool()) << ok->dump();
    }
  }
}

TEST(ServeDaemon, UnknownMapperIsRejectedEagerly) {
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  Json frame = submit_frame();
  frame.set("mapper", Json("definitely-not-a-mapper"));
  client.send(frame);
  const auto response = client.recv(10000.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool());
  EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
}

TEST(ServeDaemon, DestructionWithJobsInFlightIsRaceFree) {
  // Regression for a TSan-caught write-after-close: a worker's
  // on_terminal callback pokes the wake pipe (push_event -> wake ->
  // write), and ~Daemon used to close that pipe before the service
  // joined its workers. The window is the gap between a job turning
  // terminal (which lets run() finish draining) and the callback's
  // write; several rounds of teardown with jobs mid-flight keep
  // hitting it.
  for (int round = 0; round < 5; ++round) {
    DaemonFixture fixture({.workers = 2, .max_queued = 8});
    WireClient client(fixture.daemon->endpoint());
    Json slow = submit_frame(24);
    slow.set("mapper", Json("anneal:iters=200000"));
    for (int i = 0; i < 4; ++i) {
      client.send(slow);
      const auto ok = client.recv(10000.0);
      ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool()) << ok->dump();
    }
    // Fixture teardown drains with zero grace: the jobs get cancelled
    // while running and their terminal callbacks race the destructor.
  }
}

TEST(ServeDaemon, MalformedJsonClosesTheConnection) {
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  client.send_raw("{this is not json}\n");
  const auto error = client.recv(10000.0);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("error").at("code").as_string(), "bad_json");
  // The daemon closes after flushing: the next read hits EOF.
  EXPECT_THROW(
      {
        while (true) {
          if (!client.recv(10000.0).has_value()) break;
        }
      },
      Error);

  // A fresh connection still works.
  WireClient again(fixture.daemon->endpoint());
  again.send(submit_frame());
  const auto ok = again.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

TEST(ServeDaemon, DrainVerbFinishesInFlightAndExitsZero) {
  DaemonFixture fixture({.workers = 2});
  WireClient client(fixture.daemon->endpoint());
  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  client.send(frame);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());

  client.send(Json(
      Json::Object{{"op", Json("drain")}, {"grace_ms", Json(30000.0)}}));
  // In some order: the drain ok, a draining event, the job's done event,
  // and a final closing event.
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("state").as_string(), "done");
  const auto closing = client.recv_event("closing", 10000.0);
  EXPECT_TRUE(closing.has_value());

  EXPECT_EQ(fixture.join(), 0);
}

TEST(ServeDaemon, DrainCancelsPastGraceStillExitsZero) {
  DaemonFixture fixture({.workers = 1, .grace_ms = 100.0});
  WireClient client(fixture.daemon->endpoint());
  Json slow = submit_frame(24);
  slow.set("mapper", Json("anneal:iters=500000000"));
  slow.set("deadline_ms", Json(60000.0));
  slow.set("subscribe", Json(true));
  client.send(slow);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());

  fixture.daemon->request_drain();  // 100ms grace, then cancellation
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  // Cooperative cancellation of a running job: it returns its incumbent
  // (state "done") with the cancelled termination reason.
  EXPECT_EQ(done->at("state").as_string(), "done");
  EXPECT_EQ(done->at("termination").as_string(), "cancelled");
  // Cooperative cancellation within the hard deadline: a clean exit.
  EXPECT_EQ(fixture.join(), 0);
}

TEST(ServeDaemon, TcpEphemeralPortServes) {
  DaemonFixture fixture({.endpoint = Endpoint::parse("tcp:127.0.0.1:0"),
                         .workers = 1});
  EXPECT_NE(fixture.daemon->endpoint().port, 0);
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

TEST(ServeDaemon, BindRefusesATakenUnixEndpoint) {
  DaemonFixture fixture({.workers = 1});
  Daemon second({.endpoint = fixture.daemon->endpoint()});
  EXPECT_THROW(second.bind(), Error);
}

TEST(ServeDaemon, BindReclaimsAStaleUnixSocket) {
  // A crashed daemon leaves its socket file behind with nobody listening.
  // Startup must probe, find it dead, unlink and bind — not refuse.
  const Endpoint endpoint =
      Endpoint::parse(DaemonFixture::unique_socket_path());
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  endpoint.path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ::close(fd);  // no unlink: the stale file stays
  }
  DaemonFixture fixture({.endpoint = endpoint, .workers = 1});
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

TEST(ServeDaemon, ResumeReplaysEventsMissedWhileDetached) {
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  ASSERT_NE(client.session(), 0u);
  ASSERT_FALSE(client.session_token().empty());

  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  client.send(frame);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  // Vanish before the job finishes; let it complete while detached.
  client.drop_connection();
  for (int i = 0; i < 600; ++i) {
    const ServiceStats stats = fixture.daemon->service_stats();
    if (stats.done + stats.failed + stats.cancelled >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Resume: the done event fired into the detached session's backlog and
  // must be replayed now, exactly once.
  ASSERT_TRUE(client.reconnect(/*try_resume=*/true));
  const auto done = client.recv_event("done", 10000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
  EXPECT_EQ(done->at("state").as_string(), "done");
  EXPECT_GT(done->at("event_seq").as_int(), 0);

  // Nothing is replayed twice: no second done for the same job.
  const auto extra = client.recv_event("done", 300.0);
  EXPECT_FALSE(extra.has_value());
}

TEST(ServeDaemon, ResumePastTheWindowFallsBackToHello) {
  // resume_window_s = 0: a detached session is dropped at the very next
  // housekeeping sweep, so the resume must be refused — and the protocol
  // fallback (fresh hello on the same connection) must leave the client
  // fully usable.
  DaemonOptions options;
  options.workers = 1;
  options.resume_window_s = 0.0;
  DaemonFixture fixture(std::move(options));
  WireClient client(fixture.daemon->endpoint());
  ASSERT_FALSE(client.session_token().empty());
  const std::uint64_t old_session = client.session();

  client.drop_connection();
  // The daemon reaps the dead connection and (window 0) expires the
  // session at its next sweep; sweeps are spaced >= 1s apart.
  std::this_thread::sleep_for(std::chrono::milliseconds(2200));

  EXPECT_FALSE(client.reconnect(/*try_resume=*/true));
  EXPECT_NE(client.session(), old_session);
  client.send(submit_frame());
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

/// A hand-crafted journal: job 1 finished before the "crash", job 2 was
/// acknowledged but never ran. The restarted daemon must answer status
/// for job 1 verbatim and re-enqueue job 2 to completion.
TEST(ServeDaemon, JournalRecoveryAnswersTerminalAndRequeuesUnfinished) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_recovery.journal";
  std::remove(journal_path.c_str());
  {
    Json submit1 = Json::object();
    submit1.set("mapper", Json("spff"));
    submit1.set("class", Json("normal"));
    Json status1 = Json::object();
    status1.set("job", Json(std::uint64_t{1}));
    status1.set("class", Json("normal"));
    status1.set("state", Json("done"));
    status1.set("makespan", Json(42.5));

    Json generate = Json::object();
    generate.set("type", Json("sp"));
    generate.set("tasks", Json(std::size_t{12}));
    generate.set("seed", Json(std::uint64_t{7}));
    Json submit2 = Json::object();
    submit2.set("mapper", Json("spff"));
    submit2.set("class", Json("high"));
    submit2.set("generate", std::move(generate));
    submit2.set("seed", Json(std::uint64_t{3}));
    submit2.set("construction_seed", Json(std::uint64_t{4}));

    Journal journal(journal_path);
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{1})},
                                     {"submit", std::move(submit1)}}),
                   true);
    journal.append(Json(Json::Object{{"type", Json("terminal")},
                                     {"job", Json(std::uint64_t{1})},
                                     {"status", std::move(status1)}}),
                   true);
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{2})},
                                     {"submit", std::move(submit2)}}),
                   true);
  }

  DaemonFixture fixture(
      {.workers = 1, .journal_path = journal_path});
  WireClient client(fixture.daemon->endpoint());

  // Job 1: the recorded terminal status, verbatim, under its old id.
  client.send(Json(Json::Object{{"op", Json("status")},
                                {"job", Json(std::uint64_t{1})}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool()) << status->dump();
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(), 42.5);

  // Job 2: re-enqueued under its old id; subscribe and watch it finish.
  client.send(Json(Json::Object{{"op", Json("subscribe")},
                                {"job", Json(std::uint64_t{2})}}));
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool()) << ok->dump();
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("job").as_int(), 2);
  EXPECT_EQ(done->at("state").as_string(), "done");

  // New submissions never collide with recovered ids.
  client.send(submit_frame());
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  EXPECT_GE(accepted->at("job").as_int(), 3);

  std::remove(journal_path.c_str());
}

/// End to end: run a pinned job against a journaled daemon, kill the
/// daemon (hard drain), start a second daemon on the same journal — the
/// result must still be answerable and bit-identical.
TEST(ServeDaemon, RestartOnTheSameJournalKeepsTerminalResults) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_restart.journal";
  std::remove(journal_path.c_str());

  std::uint64_t job = 0;
  double makespan = 0.0;
  Endpoint endpoint;
  {
    DaemonFixture fixture(
        {.workers = 1, .journal_path = journal_path});
    endpoint = fixture.daemon->endpoint();
    WireClient client(endpoint);
    Json frame = submit_frame(12, /*seed=*/99);
    frame.set("seed", Json(std::uint64_t{5}));
    frame.set("construction_seed", Json(std::uint64_t{6}));
    frame.set("subscribe", Json(true));
    client.send(frame);
    const auto accepted = client.recv(10000.0);
    ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
    job = static_cast<std::uint64_t>(accepted->at("job").as_int());
    const auto done = client.recv_event("done", 30000.0);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->at("state").as_string(), "done");
    makespan = done->at("makespan").as_double();
  }  // fixture destructor: drain + exit — the "restart"

  DaemonFixture second(
      {.endpoint = endpoint, .workers = 1, .journal_path = journal_path});
  WireClient client(second.daemon->endpoint());
  client.send(
      Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool()) << status->dump();
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(), makespan);

  std::remove(journal_path.c_str());
}

/// One parsed journal line (with its '\n').
struct JournalEntry {
  std::string line;
  std::string type;
  std::uint64_t job = 0;
};

std::vector<JournalEntry> read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<JournalEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    Json record;
    std::string error;
    if (!parse_journal_line(line, record, error)) {
      ADD_FAILURE() << path << ": " << error;
      break;
    }
    entries.push_back({line + "\n", record.at("type").as_string(),
                       static_cast<std::uint64_t>(record.at("job").as_int())});
  }
  return entries;
}

/// A journaled daemon with a small retention, driven past the compaction
/// trigger (max(256, 4 x retention) appends): the journal shrinks, each
/// retained job's submitted line is byte-identical to the line appended at
/// submit, and after a restart retained jobs answer status while jobs cut
/// off before their terminal record re-run bit-identically.
TEST(ServeDaemon, CompactionKeepsSubmittedLinesVerbatimAcrossRestart) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_compaction.journal";
  std::remove(journal_path.c_str());
  constexpr std::size_t kRetention = 4;
  constexpr std::size_t kJobs = 100;  // >= 3 appends each: past 256

  std::map<std::uint64_t, std::string> submitted;  // line at submit
  std::map<std::uint64_t, Json> done_by_job;
  std::uintmax_t peak_bytes = 0;
  Endpoint endpoint;
  {
    DaemonFixture fixture({.workers = 1,
                           .completed_retention = kRetention,
                           .cache_entries = 0,
                           .journal_path = journal_path});
    endpoint = fixture.daemon->endpoint();
    WireClient client(endpoint);
    for (std::size_t k = 0; k < kJobs; ++k) {
      Json frame = submit_frame(10 + k % 7, /*seed=*/k + 1);
      if (k % 2 == 1) {
        // Inline graphs carry non-integral numbers through the encoder.
        const TaskGraph tg = graph_from_generate_spec(frame.at("generate"));
        frame = Json::object();
        frame.set("op", Json("submit"));
        frame.set("mapper", Json("spff"));
        frame.set("graph", Json::parse(to_json(tg.dag, tg.attrs)));
      }
      frame.set("seed", Json(std::uint64_t{5 + k}));
      frame.set("construction_seed", Json(std::uint64_t{6 + k}));
      frame.set("deadline_ms", Json(60000.25));
      frame.set("subscribe", Json(true));
      frame.set("return_mapping", Json(true));
      client.send(frame);
      const auto accepted = client.recv(10000.0);
      ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
      const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());
      // The ok leaves after the submitted record is on disk.
      for (const JournalEntry& e : read_journal(journal_path)) {
        if (e.type == "submitted" && e.job == job) submitted[job] = e.line;
      }
      ASSERT_EQ(submitted.count(job), 1u) << "job " << job;
      peak_bytes =
          std::max(peak_bytes, std::filesystem::file_size(journal_path));
      const auto done = client.recv_event("done", 30000.0);
      ASSERT_TRUE(done.has_value());
      ASSERT_EQ(done->at("state").as_string(), "done") << done->dump();
      done_by_job[job] = *done;
    }
  }  // drain + exit

  // Compaction ran: the file is smaller than at its peak and holds only
  // the retained jobs' submits, each byte-identical to the original.
  const std::vector<JournalEntry> compacted = read_journal(journal_path);
  EXPECT_LT(std::filesystem::file_size(journal_path), peak_bytes);
  std::size_t submits = 0;
  for (const JournalEntry& e : compacted) {
    if (e.type != "submitted") continue;
    ++submits;
    ASSERT_EQ(submitted.count(e.job), 1u);
    EXPECT_EQ(e.line, submitted[e.job]) << "job " << e.job;
  }
  EXPECT_LT(submits, kJobs);
  const std::uint64_t last = submitted.rbegin()->first;
  for (std::uint64_t job = last - kRetention + 1; job <= last; ++job) {
    bool found = false;
    for (const JournalEntry& e : compacted) {
      found = found || (e.type == "submitted" && e.job == job);
    }
    EXPECT_TRUE(found) << "retained job " << job << " lost its submit";
  }

  // Crash image: the last two jobs lose every record after their submit,
  // as if the daemon died between the submitted and terminal fsyncs.
  const std::set<std::uint64_t> unfinished = {last - 1, last};
  std::string image;
  for (const JournalEntry& e : compacted) {
    if (unfinished.count(e.job) == 0 || e.type == "submitted") image += e.line;
  }
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out << image;
  }

  DaemonFixture second({.endpoint = endpoint,
                        .workers = 1,
                        .completed_retention = kRetention,
                        .cache_entries = 0,
                        .journal_path = journal_path});
  WireClient client(second.daemon->endpoint());
  for (std::uint64_t job = last - kRetention + 1; job <= last; ++job) {
    const Json& expected = done_by_job.at(job);
    Json answer;
    if (unfinished.count(job) != 0) {
      client.send(Json(
          Json::Object{{"op", Json("subscribe")}, {"job", Json(job)}}));
      const auto ok = client.recv(10000.0);
      ASSERT_TRUE(ok.has_value());
      ASSERT_TRUE(ok->at("ok").as_bool()) << ok->dump();
      const auto done = client.recv_event("done", 30000.0);
      ASSERT_TRUE(done.has_value());
      answer = *done;
    } else {
      client.send(
          Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
      const auto status = client.recv(10000.0);
      ASSERT_TRUE(status.has_value() && status->at("ok").as_bool());
      answer = *status;
    }
    EXPECT_EQ(answer.at("job").as_int(), static_cast<std::int64_t>(job));
    ASSERT_EQ(answer.at("state").as_string(), "done") << answer.dump();
    EXPECT_EQ(answer.at("makespan").as_double(),
              expected.at("makespan").as_double())
        << "job " << job;
    EXPECT_EQ(answer.at("mapping").dump(), expected.at("mapping").dump())
        << "job " << job;
  }
  // The restart's own compaction re-encoded the replayed submits: still
  // the bytes appended at submit.
  for (const JournalEntry& e : read_journal(journal_path)) {
    if (e.type == "submitted") {
      EXPECT_EQ(e.line, submitted[e.job]);
    }
  }
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace spmap

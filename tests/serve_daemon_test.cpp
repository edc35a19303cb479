/// Integration tests of the serving daemon (serve/daemon.hpp): a real
/// Daemon on a unix socket (plus one TCP ephemeral-port case), driven by
/// WireClient over the actual protocol — submit/subscribe/done round
/// trips, overload rejection shape, cancel idempotence, graceful drain.

#include <gtest/gtest.h>

#include <poll.h>
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
#include "util/failpoint.hpp"
#include "util/timer.hpp"
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

/// Sends `frame` and returns the first response (events are skipped).
Json request(WireClient& client, const Json& frame) {
  client.send(frame);
  for (;;) {
    std::optional<Json> answer = client.recv(10000.0);
    if (!answer.has_value()) {
      ADD_FAILURE() << "no answer to " << frame.dump();
      return Json::object();
    }
    if (!answer->contains("event")) return *answer;
  }
}

Json status_frame(std::uint64_t job) {
  return Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}});
}

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
  EXPECT_THROW(graph_from_generate_spec(
                   Json::parse(R"({"type":"sp","tasks":10,"seed":1e300})")),
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

/// A progress record in the format older daemons journaled and replay now
/// skips: `started`, or `incumbent` with one improvement.
Json progress_record(const char* type, std::uint64_t job) {
  Json record = Json::object();
  record.set("type", Json(type));
  record.set("job", Json(job));
  if (std::string(type) == "incumbent") {
    record.set("makespan", Json(43.75));
    record.set("iteration", Json(std::uint64_t{12}));
    record.set("seconds", Json(0.0125));
  }
  return record;
}

/// A hand-crafted journal: job 1 finished before the "crash", job 2 was
/// acknowledged and had started but never finished; both carry the
/// `started`/`incumbent` progress records older daemons wrote. The
/// restarted daemon must answer status for job 1 verbatim and re-enqueue
/// job 2 to completion.
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
    journal.append(progress_record("started", 1), false);
    journal.append(progress_record("incumbent", 1), false);
    journal.append(Json(Json::Object{{"type", Json("terminal")},
                                     {"job", Json(std::uint64_t{1})},
                                     {"status", std::move(status1)}}),
                   true);
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{2})},
                                     {"submit", std::move(submit2)}}),
                   true);
    journal.append(progress_record("started", 2), false);
    journal.append(progress_record("incumbent", 2), false);
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
  constexpr std::size_t kJobs = 140;  // 2 appends each: past 256

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

/// Recovery holds more unfinished jobs than the queue admits: it waits
/// for queue space instead of failing acknowledged work, and every job
/// finishes under its original id.
TEST(ServeDaemon, RecoveryWaitsForQueueSpaceWithOneWorkerAndOneSlot) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_backlog.journal";
  std::remove(journal_path.c_str());
  constexpr std::uint64_t kJobs = 6;
  {
    Journal journal(journal_path);
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      Json submit = Json::object();
      submit.set("mapper", Json("anneal:iters=20000"));
      submit.set("generate", submit_frame(16, job).at("generate"));
      submit.set("seed", Json(job));
      submit.set("construction_seed", Json(job));
      journal.append(Json(Json::Object{{"type", Json("submitted")},
                                       {"job", Json(job)},
                                       {"submit", std::move(submit)}}),
                     true);
    }
  }

  DaemonFixture fixture(
      {.workers = 1, .max_queued = 1, .journal_path = journal_path});
  WireClient client(fixture.daemon->endpoint());
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    client.send(
        Json(Json::Object{{"op", Json("subscribe")}, {"job", Json(job)}}));
  }
  // Subscribe answers interleave with the done events (replayed for jobs
  // that finished while the daemon was still starting).
  std::size_t subscribed = 0;
  std::set<std::uint64_t> finished;
  while (subscribed < kJobs || finished.size() < kJobs) {
    const auto frame = client.recv(30000.0);
    ASSERT_TRUE(frame.has_value()) << finished.size() << " job(s) finished";
    if (!frame->contains("event")) {
      ASSERT_TRUE(frame->at("ok").as_bool()) << frame->dump();
      ++subscribed;
      continue;
    }
    if (frame->at("event").as_string() != "done") continue;
    EXPECT_EQ(frame->at("state").as_string(), "done") << frame->dump();
    EXPECT_TRUE(
        finished.insert(static_cast<std::uint64_t>(frame->at("job").as_int()))
            .second)
        << frame->dump();
  }
  EXPECT_EQ(*finished.begin(), 1u);
  EXPECT_EQ(*finished.rbegin(), kJobs);
  std::remove(journal_path.c_str());
}

/// A submit whose journal append fails is refused with `internal`: the
/// job is never acknowledged, never answerable, and does not come back
/// after a restart, while the next submit goes through.
TEST(ServeDaemon, FailedSubmitAppendIsRefusedAndStaysGoneAfterRestart) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_append_error.journal";
  std::remove(journal_path.c_str());
  Endpoint endpoint;
  std::uint64_t accepted_job = 0;
  {
    DaemonFixture fixture({.workers = 1, .journal_path = journal_path});
    endpoint = fixture.daemon->endpoint();
    WireClient client(endpoint);
    Failpoints::instance().arm("journal.append=error@0+1");
    const Json refused = request(client, submit_frame(12, 1));
    Failpoints::instance().clear();
    ASSERT_FALSE(refused.at("ok").as_bool()) << refused.dump();
    EXPECT_EQ(refused.at("error").at("code").as_string(), "internal");
    EXPECT_FALSE(refused.contains("job"));

    // The refused submit consumed id 1 without being acknowledged.
    const Json unknown = request(client, status_frame(1));
    EXPECT_EQ(unknown.at("error").at("code").as_string(), "unknown_job");

    Json frame = submit_frame(12, 2);
    frame.set("subscribe", Json(true));
    const Json accepted = request(client, frame);
    ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
    accepted_job = static_cast<std::uint64_t>(accepted.at("job").as_int());
    EXPECT_EQ(accepted_job, 2u);
    const auto done = client.recv_event("done", 30000.0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->at("state").as_string(), "done");
  }  // drain + exit

  DaemonFixture second(
      {.endpoint = endpoint, .workers = 1, .journal_path = journal_path});
  WireClient client(second.daemon->endpoint());
  const Json unknown = request(client, status_frame(1));
  EXPECT_EQ(unknown.at("error").at("code").as_string(), "unknown_job");
  const Json status = request(client, status_frame(accepted_job));
  ASSERT_TRUE(status.at("ok").as_bool()) << status.dump();
  EXPECT_EQ(status.at("state").as_string(), "done");
  for (const JournalEntry& e : read_journal(journal_path)) {
    EXPECT_EQ(e.job, accepted_job) << e.line;
  }
  std::remove(journal_path.c_str());
}

/// The `stats` verb reports the service counters of a known submit
/// sequence, and still answers once the daemon is draining.
TEST(ServeDaemon, StatsVerbCountsJobsAndAnswersWhileDraining) {
  DaemonFixture fixture({.workers = 1});
  WireClient client(fixture.daemon->endpoint());
  const Json stats_frame(Json::Object{{"op", Json("stats")}});
  const auto expect_counts = [](const Json& stats, std::int64_t submitted,
                                std::int64_t running, std::int64_t done) {
    ASSERT_TRUE(stats.at("ok").as_bool()) << stats.dump();
    EXPECT_EQ(stats.at("submitted").as_int(), submitted);
    EXPECT_EQ(stats.at("rejected").as_int(), 0);
    EXPECT_EQ(stats.at("queued").as_int(), 0);
    EXPECT_EQ(stats.at("running").as_int(), running);
    EXPECT_EQ(stats.at("done").as_int(), done);
    EXPECT_EQ(stats.at("failed").as_int(), 0);
    EXPECT_EQ(stats.at("cancelled").as_int(), 0);
    EXPECT_EQ(stats.at("submitted").as_int(),
              stats.at("queued").as_int() + stats.at("running").as_int() +
                  stats.at("done").as_int() + stats.at("failed").as_int() +
                  stats.at("cancelled").as_int());
    // Three distinct pinned problems missed the cache; the repeat hit.
    EXPECT_EQ(stats.at("cache_hits").as_int(), 1);
    EXPECT_EQ(stats.at("cache_misses").as_int(), 3);
  };

  // Three pinned jobs run to completion; a repeat of the first is
  // answered from the result cache.
  for (const std::uint64_t seed : {1u, 2u, 3u, 1u}) {
    Json frame = submit_frame(12, seed);
    frame.set("construction_seed", Json(seed));
    frame.set("subscribe", Json(true));
    const Json ok = request(client, frame);
    ASSERT_TRUE(ok.at("ok").as_bool()) << ok.dump();
    const auto done = client.recv_event("done", 30000.0);
    ASSERT_TRUE(done.has_value());
  }
  // Refused submits never reach the service.
  Json unknown_mapper = submit_frame();
  unknown_mapper.set("mapper", Json("definitely-not-a-mapper"));
  EXPECT_FALSE(request(client, unknown_mapper).at("ok").as_bool());
  expect_counts(request(client, stats_frame), 4, 0, 4);

  // A long job keeps the drain open while stats is asked again.
  Json slow = submit_frame(24);
  slow.set("mapper", Json("anneal:iters=500000000"));
  slow.set("deadline_ms", Json(60000.0));
  slow.set("subscribe", Json(true));
  const Json accepted = request(client, slow);
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const auto slow_job =
      static_cast<std::uint64_t>(accepted.at("job").as_int());
  for (int poll = 0; poll < 1000; ++poll) {
    if (request(client, status_frame(slow_job)).at("state").as_string() ==
        "running") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(request(client, Json(Json::Object{{"op", Json("drain")},
                                                {"grace_ms", Json(60000.0)}}))
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(client.recv_event("draining", 10000.0).has_value());
  const Json refused = request(client, submit_frame());
  EXPECT_EQ(refused.at("error").at("code").as_string(), "draining");
  expect_counts(request(client, stats_frame), 5, 1, 4);

  // Cancelling the long job lets the drain finish cleanly.
  EXPECT_TRUE(request(client, Json(Json::Object{{"op", Json("cancel")},
                                                {"job", Json(slow_job)}}))
                  .at("ok")
                  .as_bool());
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("termination").as_string(), "cancelled");
  EXPECT_EQ(fixture.join(), 0);
}

/// A bare connection without WireClient's automatic hello, so a test can
/// open with `resume` while the session's first connection is still up.
class RawConnection {
 public:
  explicit RawConnection(const Endpoint& endpoint)
      : socket_(connect_endpoint(endpoint, 5000.0)) {}

  void send(const Json& frame) {
    const std::string line = frame.dump() + "\n";
    EXPECT_EQ(send_some(socket_.fd(), line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
  }

  /// The next frame; std::nullopt on timeout or when the server closed.
  std::optional<Json> recv(double timeout_ms) {
    const WallTimer timer;
    char buffer[4096];
    while (next_ == frames_.size()) {
      const int left = static_cast<int>(timeout_ms - timer.millis());
      pollfd pfd{socket_.fd(), POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0) return std::nullopt;
      const ssize_t n = recv_some(socket_.fd(), buffer, sizeof buffer);
      if (n < 0) return std::nullopt;
      reader_.feed(buffer, static_cast<std::size_t>(n), frames_);
    }
    return Json::parse(frames_[next_++]);
  }

 private:
  Socket socket_;
  FrameReader reader_{kDefaultMaxFrameBytes};
  std::vector<std::string> frames_;
  std::size_t next_ = 0;
};

/// Half-open takeover: a second connection resumes a session whose first
/// connection the daemon still holds. The newest connection wins — the
/// old one is closed — and the session's events are replayed to the new
/// one exactly once.
TEST(ServeDaemon, ResumeTakesOverAHalfOpenConnection) {
  DaemonFixture fixture({.workers = 1});
  WireClient old_conn(fixture.daemon->endpoint());
  ASSERT_FALSE(old_conn.session_token().empty());

  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  const Json accepted = request(old_conn, frame);
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  // Read every event up to the done: the done was then in the session's
  // backlog before the takeover below.
  std::vector<std::string> seen;
  for (;;) {
    const auto event = old_conn.recv(30000.0);
    ASSERT_TRUE(event.has_value());
    ASSERT_TRUE(event->contains("event")) << event->dump();
    seen.push_back(event->dump());
    if (event->at("event").as_string() == "done") break;
  }

  RawConnection new_conn(fixture.daemon->endpoint());
  new_conn.send(Json(Json::Object{{"op", Json("resume")},
                                  {"proto", Json(kWireProtocol)},
                                  {"token", Json(old_conn.session_token())},
                                  {"last_seq", Json(std::uint64_t{0})}}));
  const auto resumed = new_conn.recv(10000.0);
  ASSERT_TRUE(resumed.has_value());
  ASSERT_TRUE(resumed->at("ok").as_bool()) << resumed->dump();
  EXPECT_EQ(static_cast<std::uint64_t>(resumed->at("session").as_int()),
            old_conn.session());
  EXPECT_EQ(static_cast<std::size_t>(resumed->at("replayed").as_int()),
            seen.size());
  for (const std::string& expected : seen) {
    const auto replayed = new_conn.recv(10000.0);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->dump(), expected);
  }
  EXPECT_FALSE(new_conn.recv(300.0).has_value());  // nothing twice

  // The daemon closed the old connection: its next read hits EOF.
  EXPECT_THROW(
      {
        while (old_conn.recv(10000.0).has_value()) {
        }
      },
      Error);

  // The session lives on over the new connection.
  new_conn.send(status_frame(
      static_cast<std::uint64_t>(accepted.at("job").as_int())));
  const auto status = new_conn.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->at("state").as_string(), "done") << status->dump();
}

}  // namespace
}  // namespace spmap

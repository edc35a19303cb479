/// The per-connection session FSM (serve/session.hpp) against a scripted
/// SessionHost: handshake paths, submit validation, drain refusals, idle
/// timeout, double-cancel idempotence — no sockets, no daemon.

#include <gtest/gtest.h>

#include <vector>

#include "serve/session.hpp"

namespace spmap {
namespace {

/// Records every host call and answers from a small script.
class FakeHost : public SessionHost {
 public:
  SubmitOutcome submit(std::uint64_t session,
                       const WireSubmit& request) override {
    submits.push_back(request);
    submit_sessions.push_back(session);
    if (!accept_submits) {
      return {.accepted = false,
              .code = WireErrorCode::kOverloaded,
              .message = "queue full for class " + request.priority_class};
    }
    return {.accepted = true, .job = next_job++};
  }

  std::optional<Json> job_status(std::uint64_t job) override {
    if (job >= next_job) return std::nullopt;
    Json body = Json::object();
    body.set("job", Json(job));
    body.set("status", Json("running"));
    return body;
  }

  bool cancel_job(std::uint64_t job) override {
    cancels.push_back(job);
    return job < next_job;  // idempotent for any known job
  }

  bool subscribe(std::uint64_t session, std::uint64_t job) override {
    subscribes.emplace_back(session, job);
    return job < next_job;
  }

  void begin_drain(double grace_ms) override {
    drain_calls.push_back(grace_ms);
    draining_ = true;
  }

  bool draining() const override { return draining_; }

  Json server_info() const override {
    return Json(Json::Object{{"server", Json("fake")}});
  }

  std::string register_session(std::uint64_t session) override {
    registered.push_back(session);
    return issue_tokens ? "tok-" + std::to_string(session) : std::string();
  }

  ResumeOutcome resume_session(std::uint64_t conn, const std::string& token,
                               std::uint64_t last_seq) override {
    resume_calls.emplace_back(token, last_seq);
    if (token != resumable_token) {
      return {.ok = false,
              .code = WireErrorCode::kUnknownSession,
              .message = "unknown session token"};
    }
    ResumeOutcome outcome;
    outcome.ok = true;
    outcome.session = resumed_session_id;
    outcome.token = token;
    outcome.replay = replay_lines;
    (void)conn;
    return outcome;
  }

  bool accept_submits = true;
  std::uint64_t next_job = 1;
  bool issue_tokens = false;
  std::string resumable_token;
  std::uint64_t resumed_session_id = 0;
  std::vector<std::string> replay_lines;
  std::vector<std::uint64_t> registered;
  std::vector<std::pair<std::string, std::uint64_t>> resume_calls;
  std::vector<WireSubmit> submits;
  std::vector<std::uint64_t> submit_sessions;
  std::vector<std::uint64_t> cancels;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> subscribes;
  std::vector<double> drain_calls;
  bool draining_ = false;
};

std::string hello_line() {
  return std::string("{\"op\":\"hello\",\"proto\":\"") + kWireProtocol +
         "\"}";
}

/// Feeds `line` and returns the single parsed response object.
Json answer(Session& session, const std::string& line, double now = 0.0) {
  const auto lines = session.on_frame(line, now);
  EXPECT_EQ(lines.size(), 1u);
  return Json::parse(lines.at(0));
}

std::string error_code(const Json& response) {
  return response.at("error").at("code").as_string();
}

// ---- handshake -------------------------------------------------------------

TEST(SessionHandshake, HelloAdvancesToActive) {
  FakeHost host;
  Session session(1, host);
  EXPECT_EQ(session.state(), SessionState::kHandshake);
  const Json response = answer(session, hello_line());
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("proto").as_string(), kWireProtocol);
  EXPECT_EQ(response.at("server").as_string(), "fake");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(SessionHandshake, NonHelloFirstFrameCloses) {
  FakeHost host;
  Session session(1, host);
  const Json response = answer(session, "{\"op\":\"status\",\"job\":1}");
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(error_code(response), "handshake_required");
  EXPECT_TRUE(session.closed());
}

TEST(SessionHandshake, WrongProtocolCloses) {
  FakeHost host;
  Session session(1, host);
  const Json response =
      answer(session, "{\"op\":\"hello\",\"proto\":\"spmap-wire/99\"}");
  EXPECT_EQ(error_code(response), "bad_handshake");
  EXPECT_TRUE(session.closed());
}

TEST(SessionHandshake, GarbageFirstFrameCloses) {
  FakeHost host;
  Session session(1, host);
  const Json response = answer(session, "not json at all");
  EXPECT_EQ(error_code(response), "bad_handshake");
  EXPECT_TRUE(session.closed());
}

TEST(SessionHandshake, HelloDuringServerDrainLandsInDraining) {
  FakeHost host;
  host.draining_ = true;
  Session session(1, host);
  const Json response = answer(session, hello_line());
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(session.state(), SessionState::kDraining);
}

TEST(SessionHandshake, SecondHelloIsABadRequestButSurvives) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, hello_line());
  EXPECT_EQ(error_code(response), "bad_request");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

// ---- resume handshake ------------------------------------------------------

std::string resume_line(const std::string& token, std::uint64_t last_seq) {
  return std::string("{\"op\":\"resume\",\"proto\":\"") + kWireProtocol +
         "\",\"token\":\"" + token +
         "\",\"last_seq\":" + std::to_string(last_seq) + "}";
}

TEST(SessionResume, HelloCarriesSessionAndTokenWhenTheHostIssuesThem) {
  FakeHost host;
  host.issue_tokens = true;
  Session session(5, host);
  const Json response = answer(session, hello_line());
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("session").as_int(), 5);
  EXPECT_EQ(response.at("token").as_string(), "tok-5");
  ASSERT_EQ(host.registered.size(), 1u);
  EXPECT_EQ(host.registered[0], 5u);
}

TEST(SessionResume, HelloOmitsIdentityWhenTheHostDoesNot) {
  FakeHost host;  // issue_tokens = false
  Session session(5, host);
  const Json response = answer(session, hello_line());
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_FALSE(response.contains("session"));
  EXPECT_FALSE(response.contains("token"));
}

TEST(SessionResume, KnownTokenResumesAdoptsIdentityAndReplays) {
  FakeHost host;
  host.resumable_token = "tok-3";
  host.resumed_session_id = 3;
  host.replay_lines = {"{\"event\":\"done\",\"job\":1,\"event_seq\":4}\n",
                       "{\"event\":\"done\",\"job\":2,\"event_seq\":5}\n"};
  Session session(9, host);  // fresh conn id 9, resuming old session 3
  const auto lines = session.on_frame(resume_line("tok-3", 3), 0.0);
  ASSERT_EQ(lines.size(), 3u);  // the ok + both replayed events
  const Json ok = Json::parse(lines[0]);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(ok.at("session").as_int(), 3);
  EXPECT_EQ(ok.at("token").as_string(), "tok-3");
  EXPECT_EQ(ok.at("replayed").as_int(), 2);
  EXPECT_EQ(Json::parse(lines[1]).at("event_seq").as_int(), 4);
  EXPECT_EQ(Json::parse(lines[2]).at("event_seq").as_int(), 5);
  EXPECT_EQ(session.state(), SessionState::kActive);
  EXPECT_EQ(session.id(), 3u);  // the session IS the old session now
  ASSERT_EQ(host.resume_calls.size(), 1u);
  EXPECT_EQ(host.resume_calls[0].first, "tok-3");
  EXPECT_EQ(host.resume_calls[0].second, 3u);
}

TEST(SessionResume, UnknownTokenErrorsButAllowsAFreshHello) {
  FakeHost host;
  host.issue_tokens = true;
  Session session(9, host);
  const Json refused = answer(session, resume_line("tok-dead", 0));
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(error_code(refused), "unknown_session");
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.state(), SessionState::kHandshake);

  // The same connection can still hello from scratch.
  const Json hello = answer(session, hello_line());
  EXPECT_TRUE(hello.at("ok").as_bool());
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(SessionResume, MalformedResumeCloses) {
  for (const std::string line :
       {std::string("{\"op\":\"resume\",\"proto\":\"") + kWireProtocol +
            "\"}",  // no token/last_seq
        std::string("{\"op\":\"resume\",\"proto\":\"spmap-wire/99\","
                    "\"token\":\"t\",\"last_seq\":0}"),  // wrong proto
        std::string("{\"op\":\"resume\",\"proto\":\"") + kWireProtocol +
            "\",\"token\":7,\"last_seq\":0}"}) {  // token not a string
    FakeHost host;
    Session session(9, host);
    const Json response = answer(session, line);
    EXPECT_EQ(error_code(response), "bad_handshake") << line;
    EXPECT_TRUE(session.closed()) << line;
  }
}

TEST(SessionResume, ResumeAfterHelloIsABadRequest) {
  FakeHost host;
  host.issue_tokens = true;
  Session session(9, host);
  answer(session, hello_line());
  const Json response = answer(session, resume_line("tok-9", 0));
  EXPECT_EQ(error_code(response), "bad_request");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

// ---- framing errors vs app errors ------------------------------------------

TEST(SessionErrors, BadJsonClosesAnActiveSession) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, "{broken");
  EXPECT_EQ(error_code(response), "bad_json");
  EXPECT_TRUE(session.closed());
  // Closed sessions consume frames silently.
  EXPECT_TRUE(session.on_frame(hello_line(), 0.0).empty());
}

TEST(SessionErrors, UnknownOpSurvives) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, "{\"op\":\"frobnicate\"}");
  EXPECT_EQ(error_code(response), "unknown_op");
  EXPECT_EQ(response.at("op").as_string(), "frobnicate");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(SessionErrors, MissingOpSurvives) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, "{\"job\":1}");
  EXPECT_EQ(error_code(response), "bad_request");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

TEST(SessionErrors, FrameOverflowCloses) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const auto lines = session.on_frame_overflow();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(error_code(Json::parse(lines[0])), "frame_too_long");
  EXPECT_TRUE(session.closed());
}

// ---- submit validation -----------------------------------------------------

std::string submit_line(const std::string& extra = "") {
  return "{\"op\":\"submit\",\"mapper\":\"spff\","
         "\"generate\":{\"type\":\"sp\",\"tasks\":8,\"seed\":1}" +
         extra + "}";
}

TEST(SessionSubmit, ValidSubmitReachesTheHost) {
  FakeHost host;
  Session session(7, host);
  answer(session, hello_line());
  const Json response = answer(
      session, submit_line(",\"class\":\"high\",\"max_evals\":100,"
                           "\"seed\":5,\"subscribe\":true,\"tag\":42"));
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("job").as_int(), 1);
  EXPECT_EQ(response.at("class").as_string(), "high");
  EXPECT_EQ(response.at("tag").as_int(), 42);  // tag echoes back
  ASSERT_EQ(host.submits.size(), 1u);
  const WireSubmit& seen = host.submits[0];
  EXPECT_EQ(host.submit_sessions[0], 7u);
  EXPECT_EQ(seen.mapper_spec, "spff");
  EXPECT_EQ(seen.priority, 2);
  EXPECT_EQ(seen.max_evaluations, 100u);
  ASSERT_TRUE(seen.seed.has_value());
  EXPECT_EQ(*seen.seed, 5u);
  EXPECT_TRUE(seen.subscribe);
  EXPECT_TRUE(seen.generate.has_value());
  EXPECT_FALSE(seen.graph.has_value());
}

struct BadSubmitCase {
  const char* name;
  std::string line;
};

TEST(SessionSubmit, TableDrivenBadRequests) {
  const std::vector<BadSubmitCase> cases = {
      {"no_mapper", "{\"op\":\"submit\",\"generate\":{}}"},
      {"empty_mapper", "{\"op\":\"submit\",\"mapper\":\"\","
                       "\"generate\":{}}"},
      {"graph_and_generate", "{\"op\":\"submit\",\"mapper\":\"spff\","
                             "\"graph\":{},\"generate\":{}}"},
      {"neither_graph_nor_generate",
       "{\"op\":\"submit\",\"mapper\":\"spff\"}"},
      {"bad_class", submit_line(",\"class\":\"urgent\"")},
      {"class_not_string", submit_line(",\"class\":3")},
      {"negative_deadline", submit_line(",\"deadline_ms\":-1")},
      {"negative_seed", submit_line(",\"seed\":-4")},
      // Past 2^63 the integer conversion would be undefined behaviour.
      {"huge_seed", submit_line(",\"seed\":1e300")},
      {"huge_construction_seed",
       submit_line(",\"construction_seed\":1e300")},
      {"huge_max_evals", submit_line(",\"max_evals\":1e300")},
      {"unknown_key", submit_line(",\"bogus\":1")},
      {"graph_not_object", "{\"op\":\"submit\",\"mapper\":\"spff\","
                           "\"graph\":\"x\"}"},
      {"subscribe_not_bool", submit_line(",\"subscribe\":1")},
  };
  for (const BadSubmitCase& c : cases) {
    FakeHost host;
    Session session(1, host);
    answer(session, hello_line());
    const Json response = answer(session, c.line);
    EXPECT_EQ(error_code(response), "bad_request") << c.name;
    EXPECT_EQ(session.state(), SessionState::kActive) << c.name;
    EXPECT_TRUE(host.submits.empty()) << c.name;
  }
}

TEST(SessionSubmit, HostRejectionIsForwardedVerbatim) {
  FakeHost host;
  host.accept_submits = false;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, submit_line(",\"tag\":9"));
  EXPECT_EQ(error_code(response), "overloaded");
  EXPECT_EQ(response.at("tag").as_int(), 9);
  EXPECT_EQ(session.state(), SessionState::kActive);
}

// ---- job verbs -------------------------------------------------------------

TEST(SessionJobs, StatusCancelSubscribeRoundTrip) {
  FakeHost host;
  Session session(3, host);
  answer(session, hello_line());
  answer(session, submit_line());

  Json status = answer(session, "{\"op\":\"status\",\"job\":1}");
  EXPECT_TRUE(status.at("ok").as_bool());
  EXPECT_EQ(status.at("status").as_string(), "running");

  Json subscribed = answer(session, "{\"op\":\"subscribe\",\"job\":1}");
  EXPECT_TRUE(subscribed.at("ok").as_bool());
  ASSERT_EQ(host.subscribes.size(), 1u);
  EXPECT_EQ(host.subscribes[0], (std::pair<std::uint64_t, std::uint64_t>{
                                    3u, 1u}));

  // Double-cancel: both succeed (idempotent), host sees both.
  Json first = answer(session, "{\"op\":\"cancel\",\"job\":1}");
  Json second = answer(session, "{\"op\":\"cancel\",\"job\":1}");
  EXPECT_TRUE(first.at("ok").as_bool());
  EXPECT_TRUE(second.at("ok").as_bool());
  EXPECT_EQ(host.cancels.size(), 2u);
}

TEST(SessionJobs, UnknownJobIdsAnswerUnknownJob) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  for (const char* op : {"status", "cancel", "subscribe"}) {
    const Json response = answer(
        session, std::string("{\"op\":\"") + op + "\",\"job\":999}");
    EXPECT_EQ(error_code(response), "unknown_job") << op;
    EXPECT_EQ(response.at("job").as_int(), 999) << op;
    EXPECT_EQ(session.state(), SessionState::kActive) << op;
  }
}

TEST(SessionJobs, MissingJobFieldIsABadRequest) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response = answer(session, "{\"op\":\"cancel\"}");
  EXPECT_EQ(error_code(response), "bad_request");
}

TEST(SessionJobs, OutOfRangeJobIdIsABadRequest) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response =
      answer(session, "{\"op\":\"status\",\"job\":1e300}");
  EXPECT_EQ(error_code(response), "bad_request");
  EXPECT_EQ(session.state(), SessionState::kActive);
}

// ---- drain -----------------------------------------------------------------

TEST(SessionDrain, ServerDrainMovesActiveToDraining) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const auto lines = session.on_server_drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).at("event").as_string(), "draining");
  EXPECT_EQ(session.state(), SessionState::kDraining);
}

TEST(SessionDrain, ServerDrainClosesAHandshakingSession) {
  FakeHost host;
  Session session(1, host);
  const auto lines = session.on_server_drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).at("event").as_string(), "closing");
  EXPECT_TRUE(session.closed());
}

TEST(SessionDrain, DrainingSessionRefusesSubmitButServesStatus) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  answer(session, submit_line());
  session.on_server_drain();
  host.draining_ = true;

  const Json refused = answer(session, submit_line());
  EXPECT_EQ(error_code(refused), "draining");
  EXPECT_EQ(host.submits.size(), 1u);  // nothing new reached the host

  const Json status = answer(session, "{\"op\":\"status\",\"job\":1}");
  EXPECT_TRUE(status.at("ok").as_bool());
  const Json cancel = answer(session, "{\"op\":\"cancel\",\"job\":1}");
  EXPECT_TRUE(cancel.at("ok").as_bool());
}

TEST(SessionDrain, DrainVerbReachesTheHost) {
  FakeHost host;
  Session session(1, host);
  answer(session, hello_line());
  const Json response =
      answer(session, "{\"op\":\"drain\",\"grace_ms\":250}");
  EXPECT_TRUE(response.at("ok").as_bool());
  ASSERT_EQ(host.drain_calls.size(), 1u);
  EXPECT_DOUBLE_EQ(host.drain_calls[0], 250.0);

  // Once the host reports draining, new submits on this session are
  // refused even before on_server_drain arrives.
  const Json refused = answer(session, submit_line());
  EXPECT_EQ(error_code(refused), "draining");
}

// ---- idle timeout ----------------------------------------------------------

TEST(SessionIdle, TimesOutAfterInactivity) {
  FakeHost host;
  Session session(1, host, {.idle_timeout_s = 10.0});
  answer(session, hello_line(), 100.0);
  EXPECT_TRUE(session.on_idle_check(105.0).empty());  // still fresh
  answer(session, "{\"op\":\"status\",\"job\":999}", 109.0);  // activity
  EXPECT_TRUE(session.on_idle_check(115.0).empty());  // reset by frame
  const auto lines = session.on_idle_check(119.5);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(error_code(Json::parse(lines[0])), "idle_timeout");
  EXPECT_TRUE(session.closed());
}

TEST(SessionIdle, ZeroTimeoutNeverFires) {
  FakeHost host;
  Session session(1, host);  // default idle_timeout_s = 0
  answer(session, hello_line(), 0.0);
  EXPECT_TRUE(session.on_idle_check(1e9).empty());
  EXPECT_EQ(session.state(), SessionState::kActive);
}

}  // namespace
}  // namespace spmap

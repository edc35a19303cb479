/// The serve_mixed workload: a `spmap_cli daemon` child process (two
/// workers, journal on, default cache) driven over spmap-wire/1 by one
/// closed-loop client session in this process.
///
/// Two of every three requests carry an inline `graph` document, the third
/// a `generate` spec, of the same almost-SP problems (100-300 tasks),
/// mapped by heft and peft with pinned seeds. Every request carries its own
/// seeds, so every cache lookup misses. After the window every answer is
/// re-run through a local MappingService (the loadgen --verify rule) and
/// must match bit for bit.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/mapping_service.hpp"
#include "serve/session.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "workflows/workload_spec.hpp"
#include "workloads.hpp"

extern char** environ;

namespace spbench {

using namespace spmap;

namespace {

constexpr std::size_t kProblems = 512;
constexpr std::size_t kDaemonWorkers = 2;
/// improvement_mean and the digest cover requests 0..kPrefix-1 (every
/// problem once), which every window answers, so both are fixed by the
/// seed.
constexpr std::size_t kPrefix = kProblems;
/// Journal compaction rewrites the retained jobs once 4 x retention
/// records (3 per request) are appended, stalling the IO thread. The
/// default (1024) compacts about once per 1365 requests for seconds, so
/// whether a window holds zero, one or two compactions swings its numbers.
/// 128 compacts every ~170 requests, rewriting the same volume per request
/// in short stalls spread evenly over the window; each stall holds up the
/// one request in flight (~0.6% of requests), so latency_ms_p95 stays on
/// the regular path while throughput and the printed p99 include them.
constexpr std::size_t kRetention = 128;
/// Journal appends timed directly (the p99 needs ten beyond it).
constexpr std::size_t kJournalAppends = 1000;
constexpr double kRecvTimeoutMs = 60000.0;
const char* const kMappers[] = {"heft", "peft"};

/// Seeds travel as JSON numbers (doubles): keep them exact.
std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index) {
  return derive_seed(seed, stream, index) >> 11;
}

/// Problem `p` is sent as a generate spec when p mod 3 is 2 and inline
/// otherwise. With one request in flight the two kinds form two separate
/// latency clusters (generate ~1-2 ms, inline ~6-23 ms); at one to one the
/// median would fall in the gap between them, at two to one it lies inside
/// the inline cluster.
struct Problem {
  Json generate;           ///< the generate spec
  std::string graph_text;  ///< the same graph as a document (inline only)
  std::shared_ptr<const TaskGraph> graph;
};

bool sent_inline(std::size_t problem) { return problem % 3 != 2; }

std::vector<Problem> make_problems(std::uint64_t seed) {
  std::vector<Problem> problems;
  for (std::size_t p = 0; p < kProblems; ++p) {
    const std::size_t tasks = 100 + (200 * p) / (kProblems - 1);
    Problem problem;
    problem.generate = Json::object();
    problem.generate.set("type", Json("almost-sp"));
    problem.generate.set("tasks", Json(tasks));
    problem.generate.set("extra_edges", Json(tasks / 10));
    problem.generate.set("seed", Json(wire_seed(seed, 10, p)));
    problem.graph = std::make_shared<const TaskGraph>(
        graph_from_generate_spec(problem.generate));
    problems.push_back(std::move(problem));
  }
  // Interleave sizes so every window prefix sees the whole size range.
  Rng rng(derive_seed(seed, 11, 0));
  rng.shuffle(problems);
  for (std::size_t p = 0; p < kProblems; ++p) {
    if (!sent_inline(p)) continue;
    problems[p].graph_text =
        one_line(to_json(problems[p].graph->dag, problems[p].graph->attrs));
  }
  return problems;
}

/// Request `i`: problem i mod P (sent as that problem is), heft/peft by
/// (i/2) mod 2, with seeds of its own.
struct Request {
  std::uint64_t index = 0;
  std::size_t problem = 0;
  bool inline_graph = false;
  const char* mapper = "";
  std::uint64_t run_seed = 0;
  std::uint64_t construction_seed = 0;
};

Request request(std::uint64_t seed, std::uint64_t i) {
  Request r;
  r.index = i;
  r.problem = i % kProblems;
  r.inline_graph = sent_inline(r.problem);
  r.mapper = kMappers[(i / 2) % 2];
  r.run_seed = wire_seed(seed, 12, i);
  r.construction_seed = wire_seed(seed, 13, i);
  return r;
}

std::string submit_frame(const Request& r, const Problem& p) {
  std::string frame = "{\"op\":\"submit\",\"tag\":" + std::to_string(r.index) +
                      ",\"mapper\":\"" + r.mapper + "\",\"seed\":" +
                      std::to_string(r.run_seed) + ",\"construction_seed\":" +
                      std::to_string(r.construction_seed) +
                      ",\"subscribe\":true,";
  if (r.inline_graph) {
    frame += "\"graph\":" + p.graph_text;
  } else {
    frame += "\"generate\":" + p.generate.dump();
  }
  frame += "}";
  return frame;
}

/// The daemon child process; stopped (SIGTERM, then SIGKILL after a
/// grace period) and reaped on destruction.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::string& socket,
                const std::string& journal) {
    ::unlink(socket.c_str());
    ::unlink(journal.c_str());
    std::vector<std::string> args = {cli,
                                     "daemon",
                                     "--listen",
                                     "unix:" + socket,
                                     "--workers",
                                     std::to_string(kDaemonWorkers),
                                     "--journal",
                                     journal,
                                     "--retention",
                                     std::to_string(kRetention),
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's stdout goes to our stderr: our stdout ends in the
    // result line.
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv.data(),
                    environ);
    posix_spawn_file_actions_destroy(&actions);
    require(rc == 0, "cannot start " + cli + ": " + std::strerror(rc));
  }

  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Drains the daemon and reaps it; returns its exit status (or -1).
  int stop() {
    if (pid_ <= 0) return exit_status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int waited_ms = 0;; waited_ms += 10) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (waited_ms == 10000) ::kill(pid_, SIGKILL);
      ::usleep(10000);
    }
    pid_ = -1;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return exit_status_;
  }

 private:
  pid_t pid_ = -1;
  int exit_status_ = -1;
};

/// One answered (or failed) request.
struct Answer {
  Request req;
  bool ok = false;
  std::string error;
  std::int64_t submit_ns = 0, ack_ns = 0, done_ns = 0;
  double wall_ms = 0.0;
  double makespan = 0.0, reported = 0.0, baseline = 0.0;
  std::string cache;
};

/// The serving side of one run: problems, daemon, connected session.
struct ServeSetup {
  std::vector<Problem> problems;
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<WireClient> client;
};

std::unique_ptr<ServeSetup> set_up(const Options& options, int instance) {
  auto setup = std::make_unique<ServeSetup>();
  setup->problems = make_problems(options.seed);
  const std::string base = options.work_dir + "/serve" +
                           std::to_string(instance);
  setup->daemon = std::make_unique<DaemonProcess>(
      options.cli, base + ".sock", base + ".journal");
  const Endpoint endpoint = Endpoint::parse("unix:" + base + ".sock");
  WireClientOptions client_options;
  client_options.connect_timeout_ms = 10000.0;
  setup->client = std::make_unique<WireClient>(endpoint, client_options);
  return setup;
}

/// Sends one request and waits for its ack and its done event.
Answer exchange(WireClient& client, const Request& r, const Problem& p,
                Tracer* tracer) {
  Answer a;
  a.req = r;
  const std::string frame = submit_frame(r, p);
  std::optional<Json> early_done;
  std::int32_t request_span = -1, ack_span = -1;
  if (tracer != nullptr) {
    request_span = tracer->begin("serve.request", r.index);
    ack_span = tracer->begin("serve.submit_to_ack", r.index);
  }
  a.submit_ns = now_ns();
  client.send_raw(frame + "\n");
  std::uint64_t job = 0;
  for (;;) {
    std::optional<Json> f = client.recv(kRecvTimeoutMs);
    require(f.has_value(), "serve: no ack within the timeout");
    if (f->contains("ok")) {
      a.ack_ns = now_ns();
      if (!f->at("ok").as_bool()) {
        a.error = f->contains("error") ? f->at("error").dump() : "rejected";
        if (tracer != nullptr) {
          tracer->end(ack_span);
          tracer->end(request_span);
        }
        return a;
      }
      job = static_cast<std::uint64_t>(f->at("job").as_int());
      break;
    }
    if (f->contains("event") && f->at("event").as_string() == "done") {
      early_done = std::move(f);
    }
  }
  std::int32_t wait_span = -1;
  if (tracer != nullptr) {
    tracer->end(ack_span);
    wait_span = tracer->begin("serve.ack_to_done", r.index);
  }
  std::optional<Json> done;
  if (early_done.has_value() &&
      static_cast<std::uint64_t>(early_done->at("job").as_int()) == job) {
    done = std::move(early_done);
  }
  while (!done.has_value()) {
    std::optional<Json> f = client.recv_event("done", kRecvTimeoutMs);
    require(f.has_value(), "serve: no done event within the timeout");
    if (static_cast<std::uint64_t>(f->at("job").as_int()) == job) {
      done = std::move(f);
    }
  }
  a.done_ns = now_ns();
  const Json& d = *done;
  a.ok = d.at("state").as_string() == "done";
  if (a.ok) {
    a.wall_ms = d.at("wall_ms").as_double();
    a.makespan = d.at("makespan").as_double();
    a.reported = d.at("reported_makespan").as_double();
    a.baseline = d.at("baseline_makespan").as_double();
    a.cache = d.at("cache").as_string();
  } else {
    a.error = d.contains("error") ? d.at("error").as_string() : "failed";
  }
  if (tracer != nullptr) {
    const auto wall_ns = static_cast<std::int64_t>(a.wall_ms * 1e6);
    tracer->add("serve.run", r.index, a.done_ns - wall_ns, a.done_ns,
                wait_span);
    tracer->end(wait_span);
    tracer->end(request_span);
  }
  return a;
}

struct ServeWindow {
  Window window;
  std::vector<Answer> answers;
  Tracer tracer;
};

/// One closed-loop session until the window closes. Request indices
/// continue from `next` across windows, so every request is distinct.
ServeWindow run_window(ServeSetup& setup, const Options& options,
                       double seconds, std::size_t min_jobs,
                       std::uint64_t& next, bool traced) {
  ServeWindow out;
  const pid_t daemon = setup.daemon->pid();
  const double cpu0 = self_cpu_seconds() + process_cpu_seconds(daemon);
  const std::int64_t t0 = now_ns();
  while (window_open(ms_between(t0, now_ns()) / 1e3, seconds,
                     out.answers.size(), min_jobs)) {
    const Request r = request(options.seed, next++);
    out.answers.push_back(exchange(*setup.client, r,
                                   setup.problems[r.problem],
                                   traced ? &out.tracer : nullptr));
  }
  out.window.seconds = ms_between(t0, now_ns()) / 1e3;
  out.window.cpu_seconds =
      self_cpu_seconds() + process_cpu_seconds(daemon) - cpu0;
  for (const Answer& a : out.answers) {
    if (a.ok) out.window.latency_ms.push_back(ms_between(a.submit_ns, a.done_ns));
  }
  return out;
}

/// Re-runs every answer through a local MappingService with the
/// identical job construction (the loadgen --verify rule); returns the
/// number of answers that differ.
std::size_t verify_answers(const std::vector<Answer>& answers,
                           const std::vector<Problem>& problems) {
  const auto platform = std::make_shared<const Platform>(reference_platform());
  MappingService service(MappingServiceOptions{.workers = kDaemonWorkers});
  std::vector<MappingService::JobHandle> handles;
  for (const Answer& a : answers) {
    const Problem& p = problems[a.req.problem];
    MapJob job;
    job.mapper_spec = a.req.mapper;
    job.graph = a.req.inline_graph
                    ? std::make_shared<const TaskGraph>(
                          task_graph_from_json(p.graph_text))
                    : std::make_shared<const TaskGraph>(
                          graph_from_generate_spec(p.generate));
    job.platform = platform;
    job.inner_orders = 0;
    job.reporting_orders = 0;
    job.construction_rng = Rng(a.req.construction_seed);
    MapRequest request;
    request.seed = a.req.run_seed;
    handles.push_back(service.submit(std::move(job), std::move(request)));
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const MapJobResult& local = handles[i].wait();
    const Answer& a = answers[i];
    if (!a.ok || !local.error.empty() ||
        local.report.predicted_makespan != a.makespan ||
        local.reported_makespan != a.reported ||
        local.baseline_makespan != a.baseline) {
      ++mismatches;
      std::fprintf(stderr, "request %llu: %s\n",
                   static_cast<unsigned long long>(a.req.index),
                   a.ok ? "server answer differs from the local re-run"
                        : a.error.c_str());
    }
  }
  return mismatches;
}

/// Journal::append(record, sync=true) times (ms) on submitted records of
/// both kinds.
std::vector<double> journal_append_ms(const ServeSetup& setup,
                                      const Options& options) {
  const std::string path = options.work_dir + "/append-probe.journal";
  ::unlink(path.c_str());
  std::vector<double> ms;
  {
    Journal journal(path);
    for (std::size_t k = 0; k < kJournalAppends; ++k) {
      const Request r = request(options.seed, k);
      Json record = Json::object();
      record.set("type", Json("submitted"));
      record.set("job", Json(k));
      record.set("submit", to_json(wire_submit_from_json(Json::parse(
                               submit_frame(r, setup.problems[r.problem])))));
      const std::int64_t t = now_ns();
      journal.append(record, /*sync=*/true);
      ms.push_back(ms_between(t, now_ns()));
    }
  }
  ::unlink(path.c_str());
  return ms;
}

void report_traced(const ServeSetup& setup, const Options& options,
                   const ServeWindow& untraced, const ServeWindow& traced,
                   Report& report) {
  std::vector<double> ack_inline, ack_generate, run, wait;
  double wall_total = 0.0;
  std::size_t misses = 0;
  for (const Answer& a : traced.answers) {
    if (!a.ok) continue;
    (a.req.inline_graph ? ack_inline : ack_generate)
        .push_back(ms_between(a.submit_ns, a.ack_ns));
    run.push_back(a.wall_ms);
    wait.push_back(ms_between(a.ack_ns, a.done_ns) - a.wall_ms);
    wall_total += a.wall_ms;
    if (a.cache == "miss") ++misses;
  }
  report.set_percentile("serve.ack_ms_p50.inline",
                        guarded_percentile(ack_inline, 0.5), "ms");
  report.set_percentile("serve.ack_ms_p50.generate",
                        guarded_percentile(ack_generate, 0.5), "ms");
  report.set_percentile("serve.ack_ms_p99.inline",
                        guarded_percentile(ack_inline, 0.99), "ms");
  report.set_percentile("serve.ack_ms_p99.generate",
                        guarded_percentile(ack_generate, 0.99), "ms");
  report.set_percentile("serve.run_ms_p50", guarded_percentile(run, 0.5),
                        "ms");
  report.set_percentile("serve.wait_ms_p50", guarded_percentile(wait, 0.5),
                        "ms");
  report.set_percentile("serve.wait_ms_p99", guarded_percentile(wait, 0.99),
                        "ms");
  report.set("serve.cache_misses", static_cast<double>(misses), "count");
  report.set("serve.worker_utilization",
             wall_total / (traced.window.seconds * 1e3 *
                           static_cast<double>(kDaemonWorkers)),
             "fraction");

  const Percentile untraced_p50 =
      guarded_percentile(untraced.window.latency_ms, 0.5);
  const Percentile traced_p50 =
      guarded_percentile(traced.window.latency_ms, 0.5);
  if (untraced_p50.ok && traced_p50.ok) {
    report.set("trace.overhead_frac",
               traced_p50.value / untraced_p50.value - 1.0, "fraction");
  }
  // The client sees two stages, submit->ack and the daemon-reported run;
  // the rest of ack->done (queue wait, terminal fsync, encode, flush) is
  // what it cannot attribute.
  const double stage_ms = traced.tracer.self_ms_sum(
      [](const std::string& name) {
        return name == "serve.submit_to_ack" || name == "serve.run";
      },
      ~std::uint64_t{0});
  double latency_ms = 0.0;
  for (const double ms : traced.window.latency_ms) latency_ms += ms;
  report.set("trace.unattributed_frac", 1.0 - stage_ms / latency_ms,
             "fraction");
  traced.tracer.write_json(options.work_dir + "/trace-serve_mixed-" +
                    std::to_string(options.seed) + ".json");

  // ---- layer functions timed directly on the same inputs ----
  std::vector<std::string> frames;
  std::vector<std::shared_ptr<const TaskGraph>> graphs;
  for (std::uint64_t i = 0; i < 4 * kProblems; ++i) {
    const Request r = request(options.seed, i);
    frames.push_back(submit_frame(r, setup.problems[r.problem]));
  }
  time_frame_layers(frames, report);
  for (const Problem& p : setup.problems) graphs.push_back(p.graph);

  std::size_t nodes = 0;
  std::int64_t t = now_ns();
  for (const Problem& p : setup.problems) {
    nodes += graph_from_generate_spec(p.generate).dag.node_count();
  }
  report.set("serve.generate_ms",
             ms_between(t, now_ns()) / static_cast<double>(kProblems), "ms");
  t = now_ns();
  for (const Problem& p : setup.problems) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::AlmostSp;
    spec.tasks = static_cast<std::size_t>(p.generate.at("tasks").as_int());
    spec.extra_edges =
        static_cast<std::size_t>(p.generate.at("extra_edges").as_int());
    Rng rng(static_cast<std::uint64_t>(p.generate.at("seed").as_int()));
    nodes -= materialize_workload(spec, rng).dag.node_count();
  }
  report.set("workflows.materialize_ms",
             ms_between(t, now_ns()) / static_cast<double>(kProblems), "ms");
  require(nodes == 0, "generate and materialize disagree on graph sizes");

  const Platform platform = reference_platform();
  time_graph_layers(graphs, platform, 0, options.seed, report);

  const std::vector<double> append_ms = journal_append_ms(setup, options);
  report.set_percentile("serve.journal_append_ms_p50",
                        guarded_percentile(append_ms, 0.5), "ms");
  report.set_percentile("serve.journal_append_ms_p99",
                        guarded_percentile(append_ms, 0.99), "ms");
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  // One CPU for the client and the daemon it spawns: the numbers must not
  // depend on how many cores the shared host grants at the moment, and the
  // hand-offs between client, IO thread and worker stay on one CPU (across
  // CPUs their wake-up latency swung the median by a fifth between runs).
  const PinToOneCpu pin;
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> setup;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    setup.reset();  // stops the previous daemon
    setup = set_up(options, rep);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  report.set("setup_s", middle_of(setup_s), "s");

  // The untraced window holds enough requests for its p99; the traced one
  // for the p99 of each request kind (a third are generate specs).
  const std::size_t p99_jobs = min_samples_for(0.99);
  std::uint64_t next = 0;
  const ServeWindow first = run_window(
      *setup, options, options.trace ? options.seconds / 2 : options.seconds,
      p99_jobs, next, false);
  std::optional<ServeWindow> traced;
  if (options.trace) {
    traced = run_window(*setup, options, options.seconds, 4 * p99_jobs, next,
                        true);
  }
  const double peak_rss =
      self_peak_rss_mb() + process_peak_rss_mb(setup->daemon->pid());
  setup->client.reset();
  const int daemon_status = setup->daemon->stop();
  require(daemon_status == 0, "daemon exited with status " +
                                  std::to_string(daemon_status));

  std::vector<Answer> all = first.answers;
  if (traced.has_value()) {
    all.insert(all.end(), traced->answers.begin(), traced->answers.end());
  }
  const std::size_t mismatches = verify_answers(all, setup->problems);
  report.attempted = all.size();
  report.failed = mismatches;
  report.correct = mismatches == 0;

  // Quality and digest over the fixed prefix of request indices.
  std::vector<const Answer*> prefix(kPrefix, nullptr);
  for (const Answer& a : all) {
    if (a.req.index < kPrefix) prefix[a.req.index] = &a;
  }
  ResultDigest digest;
  std::vector<double> baselines, reported;
  for (std::size_t i = 0; i < kPrefix; ++i) {
    require(prefix[i] != nullptr && prefix[i]->ok,
            "serve: request " + std::to_string(i) + " was not answered");
    digest.add(i, prefix[i]->makespan);
    baselines.push_back(prefix[i]->baseline);
    reported.push_back(prefix[i]->reported);
  }
  report.note("digest serve_mixed seed " + std::to_string(options.seed) +
              ": " + digest.hex() + " (requests 0.." +
              std::to_string(kPrefix - 1) + ")");

  if (!options.trace) {
    report_window(first.window, report);
    report.set("improvement_mean",
               average_positive_relative_improvement(baselines, reported),
               "fraction");
    report.set("peak_rss_mb", peak_rss, "MB");
    return;
  }
  report_traced(*setup, options, first, *traced, report);
}

}  // namespace spbench

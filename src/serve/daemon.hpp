#pragma once
/// \file daemon.hpp
/// The spmap serving daemon: a socket front-end over MappingService.
///
/// One `Daemon` is one listening endpoint (unix-domain or TCP, see
/// util/socket.hpp) speaking `spmap-wire/1` (serve/wire.hpp). The design
/// splits three layers with distinct threading rules:
///
///  * **IO thread** — the thread calling `run()` owns a single poll()
///    loop: the listener, every connection's buffers, every `Session`
///    FSM (serve/session.hpp), and the job table. No connection state is
///    ever touched from another thread.
///  * **Worker threads** — the embedded `MappingService` executes jobs.
///    Its callbacks (`on_incumbent`, `on_terminal`) run on workers; they
///    only append to a mutex-protected event queue and write one byte to
///    a self-pipe, which wakes the IO thread to fan events out to
///    subscribed connections.
///  * **Anyone** — `request_drain()` is safe from any thread and from
///    signal handlers via the same self-pipe (the CLI installs
///    SIGTERM/SIGINT handlers that call it).
///
/// ## Admission
///
/// The service queue is bounded by `max_queued` (running jobs excluded).
/// Submissions are admitted per priority class against *graduated*
/// thresholds — high may fill the whole queue, normal 3/4 of it, low
/// half — so under overload the daemon sheds its least urgent traffic
/// first while high-priority clients still get through. A rejected
/// submit answers `{"ok":false,"error":{"code":"overloaded",...}}`; the
/// connection survives and may retry.
///
/// ## Drain
///
/// `request_drain(grace_ms)` (also the wire `drain` verb and SIGTERM):
/// the listener closes, every session is notified (`draining` event) and
/// moved to its draining state (submits refused, status/cancel/subscribe
/// still served), and in-flight jobs get `grace_ms` to finish. Jobs
/// still live at the grace deadline are cancelled (cooperative, they
/// return their incumbents); jobs still live at the hard deadline
/// (grace + max(grace, 2s)) are abandoned and `run()` returns 1. A
/// clean drain — every job terminal, every `done` event flushed —
/// returns 0.
///
/// ## Crash safety (journal) and reconnect (resume)
///
/// With `journal_path` set, every accepted submit and every terminal
/// status is written through an `spmap-journal/1` log
/// (serve/journal.hpp) — each record is fsynced before the corresponding
/// wire acknowledgement leaves the daemon — and replayed at startup: a
/// restarted daemon answers `status` (terminal results included) for
/// every pre-restart job and re-enqueues jobs that never turned
/// terminal. The journal is written and compacted from the IO thread
/// only, extending the thread-safety contract above unchanged.
///
/// Independently of the journal, every helloed connection gets a
/// session token, and each session's pushed events carry a monotonic
/// `event_seq`; a reconnecting client presents the token via the
/// `resume` verb and receives exactly the events it missed (the daemon
/// keeps a bounded per-session backlog for `resume_window_s` after an
/// abrupt disconnect). Resumption is in-memory: it survives connection
/// loss, not daemon restarts — after a restart clients fall back to a
/// fresh hello and poll by job id, which the journal keeps answerable.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "serve/mapping_service.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

namespace spmap {

/// Builds a task graph from a wire `generate` spec: a workload spec
/// (workflows/workload_spec.hpp; `type` defaults to "sp") plus `seed`
/// (default 1), materialized on Rng(seed). The file-backed kinds are
/// refused. Shared by the daemon's submit path and the load generator's
/// local bit-identity verification, so the two generation paths cannot
/// drift apart. See docs/SERVING.md.
TaskGraph graph_from_generate_spec(const Json& spec);

struct DaemonOptions {
  /// Where to listen (unix:PATH or tcp:HOST:PORT; tcp port 0 lets the
  /// kernel pick — read the bound port back from `Daemon::endpoint()`).
  Endpoint endpoint;
  /// MappingService worker threads executing jobs.
  std::size_t workers = 2;
  /// Bound on jobs waiting for a worker; 0 = unbounded (no admission).
  std::size_t max_queued = 64;
  /// Seconds of connection inactivity before an idle close; 0 disables.
  double idle_timeout_s = 0.0;
  /// Default drain grace (finish window before in-flight cancellation).
  double grace_ms = 5000.0;
  /// Frame length limit (serve/wire.hpp).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Service seed: derives the construction rng stream of jobs that do
  /// not pin `construction_seed` themselves.
  std::uint64_t seed = 0x5e9e5eed;
  /// Terminal jobs kept addressable for status/subscribe; older ones are
  /// evicted FIFO (bounds daemon memory under sustained load).
  std::size_t completed_retention = 1024;
  /// Result-cache entry bound (serve/result_cache.hpp); 0 disables the
  /// cache entirely. On by default: cached answers are bit-identical to
  /// recomputation, so repeat submissions of pinned-seed requests are
  /// answered O(1) without occupying a worker.
  std::size_t cache_entries = 4096;
  /// Result-cache byte bound (estimated resident bytes; 0 = unbounded).
  std::size_t cache_bytes = 256u << 20;
  /// Crash-safety journal path (spmap-journal/1); empty disables the
  /// journal (jobs are forgotten on restart, the pre-PR-7 behavior).
  std::string journal_path;
  /// Seconds a session stays resumable after an abrupt disconnect; the
  /// per-session event backlog is dropped once the window closes.
  double resume_window_s = 120.0;
  /// Install SIGTERM/SIGINT handlers that trigger a graceful drain
  /// (process-global: for the CLI, not for embedded/test daemons).
  bool install_signal_handlers = false;
  /// Lifecycle log sink (connections, jobs, drain); nullptr = silent.
  std::FILE* log = nullptr;
};

class Daemon : public SessionHost {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon() override;

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds and listens. Throws spmap::Error on a taken endpoint (a live
  /// unix socket) or bind failure. Must precede run().
  void bind();

  /// The bound endpoint — for tcp port 0 this carries the real port.
  const Endpoint& endpoint() const;

  /// The IO loop: serves until a drain completes. Returns 0 for a clean
  /// drain, 1 when jobs had to be abandoned at the hard deadline.
  int run();

  /// Triggers a graceful drain (grace_ms < 0: the configured default).
  /// Safe from any thread and from signal handlers.
  void request_drain(double grace_ms = -1.0);

  /// Snapshot of the embedded service's admission/lifecycle counters.
  ServiceStats service_stats() const { return service_->stats(); }

  /// The shared result cache (null when `cache_entries` was 0).
  const std::shared_ptr<ResultCache>& result_cache() const { return cache_; }

  // ---- SessionHost (IO thread only) ----
  // The overrides carry SPMAP_REQUIRES(io_role_): daemon-internal calls
  // are compiler-checked to happen on the IO thread. Calls through the
  // SessionHost base (the Session FSM) are outside the analysis — the
  // Session itself lives in the IO thread's Conn table, so they cannot
  // run anywhere else.
  SubmitOutcome submit(std::uint64_t session,
                       const WireSubmit& request) override
      SPMAP_REQUIRES(io_role_);
  std::optional<Json> job_status(std::uint64_t job) override
      SPMAP_REQUIRES(io_role_);
  bool cancel_job(std::uint64_t job) override SPMAP_REQUIRES(io_role_);
  bool subscribe(std::uint64_t session, std::uint64_t job) override
      SPMAP_REQUIRES(io_role_);
  void begin_drain(double grace_ms) override;
  bool draining() const override SPMAP_REQUIRES(io_role_);
  Json server_info() const override;
  Json stats_body() const override;
  std::string register_session(std::uint64_t session) override
      SPMAP_REQUIRES(io_role_);
  ResumeOutcome resume_session(std::uint64_t conn, const std::string& token,
                               std::uint64_t last_seq) override
      SPMAP_REQUIRES(io_role_);

 private:
  /// One accepted connection: socket, protocol FSM, buffers.
  struct Conn {
    Socket socket;
    Session session;
    FrameReader reader;
    std::string outbuf;

    Conn(Socket s, std::uint64_t id, SessionHost& host, SessionConfig config,
         std::size_t max_frame)
        : socket(std::move(s)),
          session(id, host, config),
          reader(max_frame) {}
  };

  /// One submitted job as the wire sees it (IO thread only).
  struct JobEntry {
    MappingService::JobHandle handle;
    std::string priority_class;
    bool want_mapping = false;
    bool terminal = false;
    std::set<std::uint64_t> subscribers;  ///< session ids
    /// The job's encoded `submitted` journal line, written once at submit
    /// and copied verbatim by compaction (journal mode only).
    std::string submitted_line;
    /// Terminal status restored from the journal after a restart — such
    /// an entry has no live handle; status answers from this verbatim.
    std::optional<Json> restored_status;
  };

  /// One resumable session (IO thread only): issued at hello, detached
  /// on abrupt disconnect, re-attached by `resume`, expired after
  /// `resume_window_s` detached seconds.
  struct SessionRecord {
    std::string token;
    std::uint64_t conn = 0;       ///< attached connection id; 0 = detached
    std::uint64_t next_seq = 1;   ///< next event_seq to assign
    /// Recent sequenced event lines, for resume replay (bounded).
    std::deque<std::pair<std::uint64_t, std::string>> backlog;
    double detached_at = 0.0;     ///< clock_ seconds; valid when detached
  };

  /// Worker-to-IO-thread notification (see the header comment).
  struct Event {
    enum class Kind { kIncumbent, kTerminal, kReplayDone } kind;
    std::uint64_t job = 0;
    IncumbentRecord incumbent;   ///< kIncumbent
    std::uint64_t session = 0;   ///< kReplayDone target
  };

  void wake() const;
  /// Worker-thread side of the handoff: event queue + self-pipe only —
  /// the one daemon entry point that must NOT hold the IO role.
  void push_event(Event event) SPMAP_EXCLUDES(events_mutex_);
  void process_events() SPMAP_REQUIRES(io_role_)
      SPMAP_EXCLUDES(events_mutex_);
  void handle_event(const Event& event) SPMAP_REQUIRES(io_role_);

  void accept_clients(double now) SPMAP_REQUIRES(io_role_);
  void conn_readable(std::uint64_t id, Conn& conn, double now)
      SPMAP_REQUIRES(io_role_);
  /// Appends lines and flushes; false when the connection died.
  bool enqueue_lines(Conn& conn, const std::vector<std::string>& lines)
      SPMAP_REQUIRES(io_role_);
  bool flush_outbuf(Conn& conn) SPMAP_REQUIRES(io_role_);
  void reap_connections(double now) SPMAP_REQUIRES(io_role_);

  void start_drain(double now) SPMAP_REQUIRES(io_role_);
  /// Graduated per-class admission bound (see the header comment).
  std::size_t class_capacity(int priority) const;

  /// A wire submit as a service job, with its callbacks wired to events
  /// keyed by the wire id `id`.
  struct BuiltJob {
    MapJob job;
    MapRequest run;
  };
  /// The one job path of `submit` and journal recovery. Throws
  /// spmap::Error for an unknown mapper name or an unbuildable graph or
  /// platform.
  BuiltJob build_job(std::uint64_t id, const WireSubmit& request);
  std::shared_ptr<const TaskGraph> resolve_graph(const WireSubmit& request);
  std::shared_ptr<const Platform> resolve_platform(const WireSubmit& request);
  Json status_body(std::uint64_t id, const JobEntry& entry) const
      SPMAP_REQUIRES(io_role_);

  /// Assigns `event_seq`, appends to the session's backlog, and sends the
  /// line when the session has an attached live connection.
  void send_event(std::uint64_t session, const std::string& event,
                  Json body) SPMAP_REQUIRES(io_role_);
  /// Registers a terminal job in the retention FIFO, evicting past the
  /// retention bound.
  void retain_completed(std::uint64_t job) SPMAP_REQUIRES(io_role_);
  /// Drops detached sessions whose resume window closed.
  void expire_sessions(double now) SPMAP_REQUIRES(io_role_);

  // ---- journal (all IO-thread; no-ops when the journal is off) ----
  /// Replays `journal_path`, restores terminal jobs, re-enqueues
  /// unfinished ones, and opens (compacted) for append.
  void init_journal() SPMAP_REQUIRES(io_role_);
  /// Rewrites the journal as one submitted(+terminal) record pair per
  /// retained job, bounding the file by the completed retention.
  void compact_journal() SPMAP_REQUIRES(io_role_);

  void logf(const char* fmt, ...) const;

  /// "Workers only touch the event queue": everything below tagged
  /// SPMAP_GUARDED_BY(io_role_) is owned by the thread inside run() — the
  /// single-owner-IO contract of the header, now compiler-checked. The
  /// constructor and bind() hold the role too (single-threaded setup
  /// precedes run() by contract).
  ThreadRole io_role_;

  DaemonOptions options_;
  std::shared_ptr<ResultCache> cache_;  ///< null when caching is off
  std::unique_ptr<MappingService> service_;
  /// Set by bind(), shape-stable afterwards; endpoint() reads const data
  /// through it from any thread, the IO loop owns its mutable socket
  /// state. Not role-guarded for that one cross-thread endpoint() read.
  std::optional<ListenSocket> listener_;
  int wake_read_ = -1;
  int wake_write_ = -1;

  WallTimer clock_;  ///< the IO loop's monotonic time base (seconds)

  std::map<std::uint64_t, Conn> conns_ SPMAP_GUARDED_BY(io_role_);
  std::uint64_t next_session_id_ SPMAP_GUARDED_BY(io_role_) = 1;

  /// Resumable sessions keyed by session id (== the id of the connection
  /// that helloed them; a resumed session keeps its id across conns).
  std::map<std::uint64_t, SessionRecord> sessions_ SPMAP_GUARDED_BY(io_role_);
  Rng token_rng_ SPMAP_GUARDED_BY(io_role_);
  double last_session_sweep_s_ SPMAP_GUARDED_BY(io_role_) = 0.0;

  std::map<std::uint64_t, JobEntry> jobs_ SPMAP_GUARDED_BY(io_role_);
  std::deque<std::uint64_t> completed_order_
      SPMAP_GUARDED_BY(io_role_);  ///< retention FIFO
  std::uint64_t next_job_id_ SPMAP_GUARDED_BY(io_role_) = 1;
  std::size_t outstanding_
      SPMAP_GUARDED_BY(io_role_) = 0;  ///< submitted, not yet terminal

  std::unique_ptr<Journal> journal_
      SPMAP_GUARDED_BY(io_role_);  ///< null when journaling is off

  Mutex events_mutex_;
  std::deque<Event> events_ SPMAP_GUARDED_BY(events_mutex_);

  std::atomic<bool> drain_requested_{false};
  std::atomic<double> requested_grace_ms_{-1.0};
  bool draining_ SPMAP_GUARDED_BY(io_role_) = false;
  bool cancelled_in_flight_ SPMAP_GUARDED_BY(io_role_) = false;
  double grace_deadline_s_ SPMAP_GUARDED_BY(io_role_) = 0.0;
  double hard_deadline_s_ SPMAP_GUARDED_BY(io_role_) = 0.0;

  std::shared_ptr<const Platform> reference_platform_;
};

}  // namespace spmap

#pragma once
/// \file loadgen.hpp
/// Load generator for the spmap serving daemon.
///
/// Simulates N concurrent client sessions against a running daemon, in
/// two driving modes:
///
///  * **closed loop** (default) — every session submits its next request
///    the moment the previous one finished (`done` event). Measures
///    capacity: the daemon is always saturated with exactly N in-flight
///    requests.
///  * **open loop** — every session submits on a fixed cadence
///    (`rate_hz` per session) regardless of completions, for
///    `duration_s`. Measures behaviour under an offered load the daemon
///    does not control — including structured `overloaded` rejections,
///    which are counted, not errors.
///
/// Requests are deterministic: request `i` of the run derives its
/// generation seed, construction seed and run seed from `seed` and `i`
/// (splitmix64 streams cut to 53 bits, so they are exact as JSON
/// numbers), pins both seeds on the wire, and bounds the run
/// by evaluations only (no deadline) — so `verify` can re-run any
/// completed request locally through the identical MappingService path
/// and demand a bit-identical makespan. The request mix assigns priority
/// classes by deterministic weighted draw (`mix`, e.g.
/// "high=1,normal=2,low=1").
///
/// Latency is measured per class from submit-write to `done`-event
/// arrival (full wire round trip including queueing), reported as
/// p50/p95/p99/mean.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/socket.hpp"

namespace spmap {

struct LoadgenOptions {
  Endpoint endpoint;
  /// Concurrent client sessions (one connection + thread each).
  std::size_t sessions = 8;
  /// Total requests across all sessions (closed loop).
  std::size_t requests = 64;
  /// Open-loop mode: submit on a cadence instead of on completion.
  bool open_loop = false;
  /// Per-session submit rate (open loop).
  double rate_hz = 20.0;
  /// Open-loop run length in seconds.
  double duration_s = 2.0;
  /// Priority-class mix, "class=weight[,class=weight...]".
  std::string mix = "normal=1";
  /// Mapper spec submitted with every request.
  std::string mapper = "spff";
  /// Generated problem size (type sp).
  std::size_t tasks = 24;
  /// Per-request evaluation budget (0 = run to convergence). Budgets
  /// keep requests deterministic; deadlines would not.
  std::size_t max_evaluations = 0;
  /// Reporting evaluator orders requested from the server.
  std::size_t reporting_orders = 0;
  /// Base seed of the deterministic request streams.
  std::uint64_t seed = 1;
  /// Distinct request identities; 0 = every request unique. With K > 0,
  /// request `i` derives its seeds from `i % K`, so a run longer than K
  /// requests repeats identities — the daemon's result cache answers the
  /// repeats (the done event carries `cache: hit`), which the cache
  /// counters below and `min_hit_rate` measure. `verify` still holds:
  /// cached answers are bit-identical to recomputation.
  std::size_t distinct = 0;
  /// Fail the run (exit-code contract in spmap_loadgen) when
  /// cache_hits / completed falls below this; negative disables.
  double min_hit_rate = -1.0;
  /// Re-run every completed request locally and compare makespans
  /// bit-identically.
  bool verify = false;
  double connect_timeout_ms = 5000.0;
  /// Extra connect attempts with exponential backoff (WireClientOptions);
  /// chaos recovery raises this floor on its own.
  std::size_t connect_retries = 0;
  /// First backoff delay between connect attempts.
  double backoff_ms = 50.0;
  /// Chaos mode (closed loop only): deterministically drop the
  /// connection around submit/await points and recover via resume — or
  /// via re-hello + status polling when the daemon restarted and no
  /// longer knows the session. Tightens the accounting invariant to
  /// "every acknowledged submit is recorded terminal exactly once":
  /// `lost` and `duplicated` in the report must stay zero.
  bool chaos = false;
  /// Probability of an injected drop at each opportunity point.
  double chaos_drop_rate = 0.15;
};

/// Per-priority-class latency/throughput aggregate.
struct LoadgenClassStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;  ///< structured `overloaded` answers
  std::size_t failed = 0;    ///< failed jobs or protocol errors
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

struct LoadgenReport {
  std::map<std::string, LoadgenClassStats> classes;
  std::size_t sessions = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  ///< completed / wall
  /// Local re-execution check (`verify`): requests re-run and compared,
  /// and how many disagreed with the server bit-for-bit.
  std::size_t verified = 0;
  std::size_t mismatches = 0;
  /// Cache outcomes reported in the done/status bodies of completed
  /// requests (`cache: hit|warm|miss|none`; "none" also covers daemons
  /// predating the field).
  std::size_t cache_hits = 0;
  std::size_t cache_warm = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_none = 0;
  // Chaos-mode accounting (all zero outside chaos mode).
  std::size_t drops = 0;       ///< connection losses, injected + incidental
  std::size_t resumes = 0;     ///< reconnects that resumed the session
  std::size_t rehellos = 0;    ///< reconnects that fell back to fresh hello
  std::size_t lost = 0;        ///< acknowledged submits with no terminal
  std::size_t duplicated = 0;  ///< terminal results delivered twice
  /// First few protocol/session errors, for diagnostics.
  std::vector<std::string> errors;
};

/// Runs the load against `options.endpoint`. Throws spmap::Error when no
/// session could even connect; per-session failures are reported, not
/// thrown.
LoadgenReport run_loadgen(const LoadgenOptions& options);

/// The report as a JSON document (schema `spmap-loadgen-report/1`).
Json loadgen_report_json(const LoadgenOptions& options,
                         const LoadgenReport& report);

}  // namespace spmap

#pragma once
/// \file workloads.hpp
/// The four workloads and the direct layer timings they share.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/io.hpp"
#include "model/platform.hpp"

namespace spbench {

/// Closed-loop measurement window of one workload.
struct Window {
  std::vector<double> latency_ms;  ///< submit -> terminal result, per job
  double seconds = 0.0;
  double cpu_seconds = 0.0;        ///< every benchmark-side process
};

/// True while a closed-loop window must keep submitting: until `seconds`
/// have passed and `completed` reaches `min_jobs` (the sample count the
/// window's highest reported percentile needs), capped at three times
/// `seconds`.
bool window_open(double elapsed_s, double seconds, std::size_t completed,
                 std::size_t min_jobs);

/// A graph document (graph/io.hpp to_json) as a single line: JSON
/// whitespace outside strings, so dropping the newlines keeps the document.
std::string one_line(std::string document);

/// jobs_per_s, latency_ms_p50/p95/p99 and cpu_ms_per_job of a window.
void report_window(const Window& window, Report& report);

/// paper_mix, search_paper, search_wide: one MappingService worker, one
/// job in flight.
void run_library(const Options& options, Report& report);

/// serve_mixed: a `spmap_cli daemon` child and one client session.
void run_serve(const Options& options, Report& report);

/// Times the graph, util, model and sched layers directly on `graphs`
/// serialized as inline documents: graph.*, util.* (unless already set),
/// model.cost_model_ms, sched.evaluate_ns, sched.evaluate_batch_ns_per_item,
/// sched.problem_hash_ms, and sched.evaluator_build_ms /
/// sched.reporting_build_ms when the traced run did not set them.
void time_graph_layers(
    const std::vector<std::shared_ptr<const spmap::TaskGraph>>& graphs,
    const spmap::Platform& platform, std::size_t reporting_orders,
    std::uint64_t seed, Report& report);

/// Times the wire layers on complete frame lines: util.frame_read_ms
/// (FrameReader::feed + is_valid_utf8), util.json_parse_ms,
/// util.json_dump_ms, util.frame_kb_mean.
void time_frame_layers(const std::vector<std::string>& frames,
                       Report& report);

}  // namespace spbench

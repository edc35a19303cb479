/// spbench — the spmap benchmark program.
///
///   spbench --workload NAME --seed N --seconds S --trace 0|1
///           --cli PATH --work-dir DIR --platform-dir DIR [--commit SHA]
///
/// Runs one workload (paper_mix, search_paper, search_wide, serve_mixed)
/// for S seconds on inputs generated from seed N, checks every output,
/// prints the metrics with their units and sample counts, and ends with
/// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
/// repeats the workload with spans around every layer call and reports
/// the per-layer metrics instead. spbench/run.py builds and launches it;
/// spbench/README.md documents every metric.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace spbench {

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const MetricDef kEndToEnd[] = {
    {"jobs_per_s", "1/s"},    {"latency_ms_p50", "ms"},
    {"latency_ms_p95", "ms"}, {"cpu_ms_per_job", "ms"},
    {"improvement_mean", "fraction"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const char* const kMapperFamilies[] = {"heft", "peft",      "snff",
                                       "spff", "sp",        "nsga",
                                       "hillclimb", "anneal", "tabu"};

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m = {
      {"workflows.materialize_ms", "ms"},
      {"graph.parse_ms", "ms"},
      {"graph.nodes_mean", "count"},
      {"graph.edges_mean", "count"},
      {"util.frame_read_ms", "ms"},
      {"util.json_parse_ms", "ms"},
      {"util.json_dump_ms", "ms"},
      {"util.frame_kb_mean", "KB"},
      {"model.cost_model_ms", "ms"},
      {"sched.evaluator_build_ms", "ms"},
      {"sched.reporting_build_ms", "ms"},
      {"sched.reporting_eval_ms", "ms"},
      {"sched.evaluate_ns", "ns"},
      {"sched.evaluate_batch_ns_per_item", "ns"},
      {"sched.problem_hash_ms", "ms"},
      {"sched.probe_ns", "ns"},
      {"sched.apply_ns", "ns"},
      {"sched.probe_incremental_frac", "fraction"},
      {"sched.probe_incremental_frac.final", "fraction"},
      {"sched.replayed_per_probe", "count"},
      {"sched.swept_per_probe", "count"},
      {"sp.forest_ms", "ms"},
      {"sp.cuts_mean", "count"},
      {"sp.subgraphs_mean", "count"},
      {"mappers.create_ms", "ms"},
  };
  for (const char* f : kMapperFamilies) {
    const std::string prefix = std::string("mappers.") + f;
    m.push_back({prefix + ".map_ms_p50", "ms"});
    m.push_back({prefix + ".evaluations_mean", "count"});
    m.push_back({prefix + ".improvement_mean", "fraction"});
  }
  const MetricDef tail[] = {
      {"serve.ack_ms_p50.inline", "ms"},
      {"serve.ack_ms_p50.generate", "ms"},
      {"serve.ack_ms_p99.inline", "ms"},
      {"serve.ack_ms_p99.generate", "ms"},
      {"serve.run_ms_p50", "ms"},
      {"serve.wait_ms_p50", "ms"},
      {"serve.wait_ms_p99", "ms"},
      {"serve.generate_ms", "ms"},
      {"serve.journal_append_ms_p50", "ms"},
      {"serve.journal_append_ms_p99", "ms"},
      {"serve.cache_misses", "count"},
      {"serve.worker_utilization", "fraction"},
      {"host.cores_effective", "count"},
      {"host.spin_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
      {"trace.unattributed_frac", "fraction"},
  };
  for (const MetricDef& d : tail) m.push_back(d);
  return m;
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") trace = value;
    else if (key == "--cli") o.cli = value;
    else if (key == "--work-dir") o.work_dir = value;
    else if (key == "--platform-dir") o.platform_dir = value;
    else if (key == "--commit") o.commit = value;
    else throw spmap::Error("unknown argument " + key);
  }
  spmap::require(argc % 2 == 1, "arguments come in --key value pairs");
  spmap::require(trace == "0" || trace == "1", "--trace takes 0 or 1");
  o.trace = trace == "1";
  spmap::require(o.seconds > 0.0, "--seconds must be positive");
  spmap::require(!o.workload.empty() && !o.work_dir.empty() &&
                     !o.platform_dir.empty(),
                 "--workload, --work-dir and --platform-dir are required");
  return o;
}

}  // namespace

bool window_open(double elapsed_s, double seconds, std::size_t completed,
                 std::size_t min_jobs) {
  if (elapsed_s >= 3.0 * seconds) return false;
  return elapsed_s < seconds || completed < min_jobs;
}

std::string one_line(std::string document) {
  std::erase(document, '\n');
  return document;
}

void report_window(const Window& window, Report& report) {
  const auto n = static_cast<double>(window.latency_ms.size());
  report.set("jobs_per_s", n / window.seconds, "1/s");
  report.set_percentile("latency_ms_p50",
                        guarded_percentile(window.latency_ms, 0.5), "ms");
  report.set_percentile("latency_ms_p95",
                        guarded_percentile(window.latency_ms, 0.95), "ms");
  report.set_percentile("latency_ms_p99",
                        guarded_percentile(window.latency_ms, 0.99), "ms");
  report.set("cpu_ms_per_job", n > 0 ? 1e3 * window.cpu_seconds / n : 0.0,
             "ms");
  char line[160];
  std::snprintf(line, sizeof line,
                "window: %.0f jobs in %.3f s, %.3f s CPU on the benchmark side",
                n, window.seconds, window.cpu_seconds);
  report.note(line);
}

int run(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const HostProbe start = probe_host(hw);

  Report report;
  if (options.workload == "serve_mixed") {
    spmap::require(!options.cli.empty(), "serve_mixed needs --cli");
    run_serve(options, report);
  } else {
    run_library(options, report);
  }

  const HostProbe end = probe_host(hw);
  const double cores = std::min(start.cores_effective, end.cores_effective);
  report.set("host.cores_effective", cores, "count");
  report.set("host.spin_ms", std::max(start.single_ms, end.single_ms), "ms");

#ifdef NDEBUG
  const bool release = true;
#else
  const bool release = false;
#endif
  std::printf("spbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("provenance: commit=%s compiler=%s build=%s NDEBUG=%s "
              "hardware_threads=%u%s\n",
              options.commit.empty() ? "unknown" : options.commit.c_str(),
              SPBENCH_COMPILER, SPBENCH_BUILD_TYPE, release ? "yes" : "no",
              hw, release ? "" : "  ** NON-RELEASE BUILD: timings invalid **");
  std::printf("host: cores_effective start=%.2f end=%.2f of %u, "
              "one-thread spin %.1f/%.1f ms%s\n",
              start.cores_effective, end.cores_effective, hw, start.single_ms,
              end.single_ms,
              cores < 0.75 * hw ? "  ** HOST WITHHELD CORES: run flagged **"
                                : "");
  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("failed_frac = %zu / %zu = %.6f\n", report.failed,
              report.attempted,
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));

  std::vector<MetricDef> wanted;
  if (options.trace) {
    wanted = per_layer_metrics();
  } else {
    wanted.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string metrics;
  for (const MetricDef& def : wanted) {
    double value = 0.0;
    const auto it = report.metrics().find(def.name);
    if (it != report.metrics().end()) {
      value = it->second.first;
      spmap::require(it->second.second == def.unit,
                     "unit mismatch for " + def.name);
      std::printf("%-40s %14.6f %s\n", def.name.c_str(), value,
                  def.unit.c_str());
    } else if (options.trace) {
      // A layer this workload does not reach (or a refused percentile).
      std::printf("%-40s %14s %s (not on this workload's path)\n",
                  def.name.c_str(), "0", def.unit.c_str());
    } else {
      std::fprintf(stderr, "spbench: end-to-end metric %s was not measured\n",
                   def.name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + def.name + "\":{\"value\":" + number(value) +
               ",\"unit\":\"" + def.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
      report.correct ? "true" : "false", std::max<std::size_t>(1, report.attempted),
      report.failed, metrics.c_str());
  return 0;
}

}  // namespace spbench

int main(int argc, char** argv) {
  try {
    return spbench::run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "spbench: %s\n", ex.what());
    return 1;
  }
}

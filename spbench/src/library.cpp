/// The library workloads: paper_mix, search_paper and search_wide.
///
/// Every job goes through the public MappingService (one worker, one job
/// in flight, so the numbers do not depend on how many cores the host
/// grants) with one ReportingContext per graph visit, exactly as the
/// scenario runner submits them. A workload is a fixed pool of jobs drawn
/// from the seed; the timed window cycles through the pool in order, and
/// any pool job the window did not reach runs untimed afterwards, so the
/// quality metric and the digest cover the same jobs in every run.

#include <cstdio>
#include <optional>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform_io.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/reference_evaluator.hpp"
#include "serve/mapping_service.hpp"
#include "sp/decomposition_forest.hpp"
#include "sp/subgraph_set.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "workflows/workload_spec.hpp"
#include "workloads.hpp"

namespace spbench {

using namespace spmap;

namespace {

/// The paper's reporting protocol: min over BFS + 100 random orders.
constexpr std::size_t kReportingOrders = 100;

/// paper_mix graph line-up per round: the Fig. 4 sizes from 50 to 200
/// tasks, and the Fig. 7 extra-edge counts on 100-task graphs. Sizes are
/// stratified rather than drawn, so the seed only changes graph structure
/// and run-to-run spread stays small.
constexpr std::size_t kPaperSpSizes[] = {50,  65,  80,  95,  110, 125,
                                         140, 155, 170, 185, 200};
constexpr std::size_t kPaperExtraEdges[] = {0,   20,  40,  60,  80, 100,
                                            120, 140, 160, 180, 200};
constexpr std::size_t kPaperRounds = 12;

/// search_* graphs: about 1000 tasks each, and the search budget per job.
/// The pools are about one window long, so a run sees many distinct graphs
/// and the seed-to-seed spread of every aggregate stays small.
constexpr std::size_t kSearchGraphs = 100;
constexpr std::size_t kSearchTasks = 1000;
constexpr std::size_t kSearchExtraEdges[] = {100, 150, 200};
constexpr std::size_t kSearchItersPaper = 2000;
constexpr std::size_t kSearchItersWide = 1000;

/// Probe replay: the first graphs of the pool, seeded random_reassignment
/// probes per replay, and how many of them are also applied (and undone)
/// to time apply().
constexpr std::size_t kReplayGraphs = 8;
constexpr std::size_t kReplayProbes = 2000;
constexpr std::size_t kReplayApplies = 200;

struct PoolJob {
  std::size_t graph = 0;
  std::string spec;
  /// Registry name of the mapper (the per-mapper metric label).
  std::string family;
  std::uint64_t construction_seed = 0;
};

struct Workload {
  std::shared_ptr<const Platform> platform;
  std::vector<std::shared_ptr<const TaskGraph>> graphs;
  std::vector<PoolJob> jobs;
  /// The mapper line-up, in per-graph submission order.
  std::vector<std::string> families;
  /// init= of the search mappers ("" for paper_mix).
  std::string init;
  /// Generation time of each graph (workflows.materialize_ms).
  std::vector<double> materialize_ms;
};

std::shared_ptr<const TaskGraph> share(TaskGraph graph) {
  return std::make_shared<const TaskGraph>(std::move(graph));
}

Workload make_workload(const Options& options) {
  Workload w;
  const std::string& name = options.workload;
  std::vector<std::string> specs;
  if (name == "paper_mix") {
    w.platform = std::make_shared<const Platform>(
        load_platform_file(options.platform_dir + "/paper_cpu_gpu_fpga.json")
            .platform);
    std::size_t index = 0;
    for (std::size_t round = 0; round < kPaperRounds; ++round) {
      WorkloadSpec spec;
      spec.kind = WorkloadKind::Sp;
      for (const std::size_t tasks : kPaperSpSizes) {
        spec.tasks = tasks;
        Rng rng(derive_seed(options.seed, 1, index++));
        const std::int64_t t = now_ns();
        w.graphs.push_back(share(materialize_workload(spec, rng)));
        w.materialize_ms.push_back(ms_between(t, now_ns()));
      }
      spec.kind = WorkloadKind::AlmostSp;
      spec.tasks = 100;
      for (const std::size_t extra : kPaperExtraEdges) {
        spec.extra_edges = extra;
        Rng rng(derive_seed(options.seed, 1, index++));
        const std::int64_t t = now_ns();
        w.graphs.push_back(share(materialize_workload(spec, rng)));
        w.materialize_ms.push_back(ms_between(t, now_ns()));
      }
    }
    w.families = {"heft", "peft", "snff", "spff", "sp", "nsga"};
    specs = {"heft", "peft", "snff", "spff", "sp", "nsga:generations=50"};
  } else if (name == "search_paper" || name == "search_wide") {
    const bool wide = name == "search_wide";
    w.init = wide ? "cpu" : "heft";
    if (wide) {
      w.platform = std::make_shared<const Platform>(manycore_platform());
    } else {
      w.platform = std::make_shared<const Platform>(
          load_platform_file(options.platform_dir +
                             "/paper_cpu_gpu_fpga.json")
              .platform);
    }
    for (std::size_t g = 0; g < kSearchGraphs; ++g) {
      Rng rng(derive_seed(options.seed, 1, g));
      const std::int64_t t = now_ns();
      if (wide) {
        // The wide_manycore configuration: 16-wide layered DAGs.
        TaskGraph tg;
        tg.dag = generate_layered_dag(rng, {.layers = 1024 / 16,
                                            .min_width = 16,
                                            .max_width = 16,
                                            .edge_probability = 0.25});
        tg.attrs = random_task_attrs(tg.dag, rng);
        w.graphs.push_back(share(std::move(tg)));
      } else {
        WorkloadSpec spec;
        spec.kind = WorkloadKind::AlmostSp;
        spec.tasks = kSearchTasks;
        spec.extra_edges = kSearchExtraEdges[g % std::size(kSearchExtraEdges)];
        w.graphs.push_back(share(materialize_workload(spec, rng)));
      }
      w.materialize_ms.push_back(ms_between(t, now_ns()));
    }
    w.families = {"hillclimb", "anneal", "tabu"};
    for (const std::string& f : w.families) {
      specs.push_back(f + ":init=" + w.init +
                      ",iters=" +
                      std::to_string(wide ? kSearchItersWide
                                          : kSearchItersPaper));
    }
  } else {
    throw Error("unknown library workload " + name);
  }

  // Interleave graphs so any prefix of the pool is a fair sample of it.
  std::vector<std::size_t> order(w.graphs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffle_rng(derive_seed(options.seed, 2, 0));
  shuffle_rng.shuffle(order);
  for (const std::size_t g : order) {
    for (std::size_t m = 0; m < specs.size(); ++m) {
      PoolJob job;
      job.graph = g;
      job.family = w.families[m];
      const std::uint64_t index = w.jobs.size();
      job.spec = specs[m];
      if (!w.init.empty()) {
        job.spec += ",seed=" + std::to_string(
                                   derive_seed(options.seed, 3, index) >> 16);
      }
      job.construction_seed = derive_seed(options.seed, 4, index);
      w.jobs.push_back(std::move(job));
    }
  }
  return w;
}

/// What one job produced.
struct Outcome {
  std::string error;
  Mapping mapping;
  double predicted = 0.0;
  double reported = 0.0;
  double baseline = 0.0;
  std::size_t evaluations = 0;
};

bool same_result(const Outcome& a, const Outcome& b) {
  return a.error == b.error && a.mapping == b.mapping &&
         a.predicted == b.predicted && a.reported == b.reported &&
         a.baseline == b.baseline && a.evaluations == b.evaluations;
}

/// Per-graph reporting state, rebuilt on every visit of a graph (as the
/// scenario runner builds one per repetition).
class ContextCache {
 public:
  /// True when get() will build a new context.
  bool stale(std::size_t graph, bool first_of_graph) const {
    return ctx_ == nullptr || graph_ != graph || first_of_graph;
  }

  std::shared_ptr<const ReportingContext> get(const Workload& w,
                                              std::size_t graph,
                                              bool first_of_graph) {
    if (stale(graph, first_of_graph)) {
      ctx_ = std::make_shared<const ReportingContext>(
          w.graphs[graph], w.platform, kReportingOrders);
      graph_ = graph;
    }
    return ctx_;
  }

 private:
  std::shared_ptr<const ReportingContext> ctx_;
  std::size_t graph_ = 0;
};

/// Executes pool jobs through the MappingService.
class ServiceRunner {
 public:
  ServiceRunner() : service_(MappingServiceOptions{.workers = 1}) {}

  Outcome run(const Workload& w, std::size_t index, bool first_of_graph,
              double& latency_ms) {
    const PoolJob& pj = w.jobs[index];
    MapJob job;
    job.mapper_spec = pj.spec;
    job.graph = w.graphs[pj.graph];
    job.platform = w.platform;
    job.inner_orders = 0;
    job.reporting = contexts_.get(w, pj.graph, first_of_graph);
    job.construction_rng = Rng(pj.construction_seed);
    const std::int64_t start = now_ns();
    const MappingService::JobHandle handle = service_.submit(std::move(job));
    const MapJobResult& result = handle.wait();
    latency_ms = ms_between(start, now_ns());
    Outcome out;
    out.error = result.error;
    out.mapping = result.report.mapping;
    out.predicted = result.report.predicted_makespan;
    out.reported = result.reported_makespan;
    out.baseline = result.baseline_makespan;
    out.evaluations = result.report.evaluations;
    return out;
  }

 private:
  MappingService service_;
  ContextCache contexts_;
};

/// sp-layer counters of the traced run.
struct ForestStats {
  std::vector<double> cuts;
  std::vector<double> subgraphs;
};

/// The traced run: the stages of MappingService::execute performed here,
/// each inside a span. grow_decomposition_forest (sp and spff) is traced
/// on its own, ahead of MapperRegistry::create, which grows the same
/// forest again inside the mapper.
Outcome run_traced(const Workload& w, std::size_t index, bool first_of_graph,
                   std::uint64_t job_id, ContextCache& contexts,
                   Tracer& tracer, ForestStats& forest, double& latency_ms) {
  const PoolJob& pj = w.jobs[index];
  const TaskGraph& graph = *w.graphs[pj.graph];
  const std::int64_t start = now_ns();
  Outcome out;
  try {
    Scope job_span(&tracer, "job", job_id);
    std::shared_ptr<const ReportingContext> ctx;
    if (contexts.stale(pj.graph, first_of_graph)) {
      Scope s(&tracer, "sched.ReportingContext.build", job_id);
      ctx = contexts.get(w, pj.graph, first_of_graph);
      (void)ctx->baseline();  // forces the lazy build
    } else {
      ctx = contexts.get(w, pj.graph, first_of_graph);
    }
    std::optional<Evaluator> inner;
    {
      Scope s(&tracer, "sched.Evaluator", job_id);
      inner.emplace(ctx->cost(), EvalParams{.random_orders = 0});
    }
    if (pj.family == "sp" || pj.family == "spff") {
      Scope s(&tracer, "sp.grow_decomposition_forest", job_id);
      Rng rng(pj.construction_seed);
      const Normalized norm = normalize_source_sink(graph.dag);
      const DecompositionResult result =
          grow_decomposition_forest(norm.dag, rng, CutPolicy::Random);
      forest.cuts.push_back(static_cast<double>(result.cuts));
      forest.subgraphs.push_back(static_cast<double>(
          subgraphs_from_forest(result.forest, graph.dag.node_count())
              .size()));
    }
    std::unique_ptr<Mapper> mapper;
    {
      Scope s(&tracer, "mappers.create", job_id);
      Rng rng(pj.construction_seed);
      mapper = MapperRegistry::instance().create(pj.spec, graph.dag, rng);
    }
    MapReport report;
    {
      Scope s(&tracer, "mappers." + pj.family + ".map", job_id);
      report = mapper->map(*inner,
                           merge_run_bounds(mapper->default_request(), {}));
    }
    {
      Scope s(&tracer, "sched.ReportingContext.evaluate", job_id);
      out.reported = ctx->evaluate(report.mapping);
    }
    out.baseline = ctx->baseline();
    out.mapping = std::move(report.mapping);
    out.predicted = report.predicted_makespan;
    out.evaluations = report.evaluations;
  } catch (const std::exception& ex) {
    out.error = ex.what();
  }
  latency_ms = ms_between(start, now_ns());
  return out;
}

/// Stage spans that stand for MappingService::execute work (the separate
/// forest span is extra work of the traced run and excluded).
const char* const kStageSpans[] = {"sched.ReportingContext.build",
                                   "sched.Evaluator", "mappers.create",
                                   "sched.ReportingContext.evaluate"};

/// Keeps the first outcome of every pool job and counts later runs of the
/// same job that differ from it (a determinism failure).
struct PoolResults {
  std::vector<std::optional<Outcome>> first;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  std::size_t attempted = 0;

  void record(std::size_t index, Outcome out) {
    ++attempted;
    if (!out.error.empty()) {
      ++errors;
      std::fprintf(stderr, "job %zu failed: %s\n", index, out.error.c_str());
    }
    if (!first[index].has_value()) {
      first[index] = std::move(out);
    } else if (!same_result(*first[index], out)) {
      ++mismatches;
      std::fprintf(stderr, "job %zu: rerun differs from its first run\n",
                   index);
    }
  }
};

/// True for the first pool job of a graph: a new graph visit, which gets a
/// fresh ReportingContext.
bool starts_graph(const Workload& w, std::size_t index) {
  return index == 0 || w.jobs[index - 1].graph != w.jobs[index].graph;
}

/// Closed loop over the pool from job 0 until the window closes.
template <typename RunFn>
Window run_window(const Workload& w, double seconds, PoolResults& results,
                  std::vector<double>& per_job_ms, RunFn&& run_one) {
  Window window;
  const std::size_t pool = w.jobs.size();
  const double cpu0 = self_cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = ms_between(t0, now_ns()) / 1e3;
    if (!window_open(elapsed, seconds, k, min_samples_for(0.95))) break;
    const std::size_t index = k % pool;
    double latency = 0.0;
    Outcome out = run_one(index, starts_graph(w, index), k, latency);
    window.latency_ms.push_back(latency);
    per_job_ms.push_back(latency);
    results.record(index, std::move(out));
  }
  window.seconds = ms_between(t0, now_ns()) / 1e3;
  window.cpu_seconds = self_cpu_seconds() - cpu0;
  return window;
}

/// Re-prices every pool job's mapping with the naive ReferenceEvaluator:
/// the BFS makespan must equal predicted_makespan, the reporting-protocol
/// makespans must equal reported and baseline, bit for bit.
std::size_t verify_pool(const Workload& w, const PoolResults& results) {
  std::size_t mismatches = 0;
  std::size_t graph = w.graphs.size();
  std::optional<CostModel> cost;
  std::optional<ReferenceEvaluator> bfs, reporting;
  double baseline = 0.0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Outcome& out = *results.first[i];
    if (!out.error.empty()) continue;  // already counted as failed
    if (w.jobs[i].graph != graph) {
      graph = w.jobs[i].graph;
      const TaskGraph& g = *w.graphs[graph];
      reporting.reset();
      bfs.reset();
      cost.emplace(g.dag, g.attrs, *w.platform);
      bfs.emplace(*cost);
      reporting.emplace(*cost, EvalParams{.random_orders = kReportingOrders});
      baseline = reporting->evaluate(
          Mapping(g.dag.node_count(), w.platform->default_device()));
    }
    const bool ok = bfs->evaluate(out.mapping) == out.predicted &&
                    reporting->evaluate(out.mapping) == out.reported &&
                    baseline == out.baseline;
    if (!ok) {
      ++mismatches;
      std::fprintf(stderr,
                   "job %zu (%s): reference makespan disagrees with the "
                   "service\n",
                   i, w.jobs[i].spec.c_str());
    }
  }
  return mismatches;
}

/// Replays seeded random_reassignment probes from `mapping` and adds the
/// engine's counters and timings to the running totals.
struct ProbeTotals {
  double probe_ns = 0.0;
  double apply_ns = 0.0;
  std::size_t probes = 0;
  std::size_t applies = 0;
  std::size_t incremental = 0;
  std::size_t fallback = 0;
  std::size_t replayed = 0;
  std::size_t swept = 0;
};

void replay_probes(const Evaluator& eval, const Mapping& mapping,
                   std::uint64_t seed, ProbeTotals& totals) {
  IncrementalEvaluator inc(eval);
  inc.reset(mapping);
  Rng rng(seed);
  const std::size_t devices = eval.cost().platform().device_count();
  std::vector<TaskReassignment> moves;
  for (std::size_t i = 0; i < kReplayProbes; ++i) {
    moves.push_back(random_reassignment(mapping, devices, rng));
  }
  double sink = 0.0;
  const std::int64_t t0 = now_ns();
  for (const TaskReassignment& move : moves) sink += inc.probe(move);
  totals.probe_ns += static_cast<double>(now_ns() - t0);
  totals.probes += moves.size();
  totals.incremental += inc.incremental_probe_count();
  totals.fallback += inc.fallback_probe_count();
  totals.replayed += inc.incremental_replayed_total();
  totals.swept += inc.fallback_swept_total();
  for (std::size_t i = 0; i < kReplayApplies; ++i) {
    const std::int64_t t = now_ns();
    sink += inc.apply(moves[i]);
    totals.apply_ns += static_cast<double>(now_ns() - t);
    inc.undo();
  }
  totals.applies += kReplayApplies;
  require(sink > 0.0, "probe replay: no makespan");
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void report_probe_metrics(const Workload& w, const PoolResults& results,
                          std::uint64_t seed, Report& report) {
  ProbeTotals from_init, from_final;
  for (std::size_t g = 0; g < std::min(kReplayGraphs, w.graphs.size());
       ++g) {
    const TaskGraph& graph = *w.graphs[g];
    const CostModel cost(graph.dag, graph.attrs, *w.platform);
    const Evaluator eval(cost);
    Rng rng(derive_seed(seed, 6, g));
    const MapReport init =
        MapperRegistry::instance().create(w.init, graph.dag, rng)->map(eval);
    replay_probes(eval, init.mapping, derive_seed(seed, 7, g), from_init);
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      if (w.jobs[i].graph != g) continue;
      replay_probes(eval, results.first[i]->mapping, derive_seed(seed, 8, i),
                    from_final);
    }
  }
  report.set("sched.probe_ns",
             from_init.probe_ns / static_cast<double>(from_init.probes), "ns");
  report.set("sched.apply_ns",
             from_init.apply_ns / static_cast<double>(from_init.applies),
             "ns");
  report.set("sched.probe_incremental_frac",
             ratio(from_init.incremental,
                   from_init.incremental + from_init.fallback),
             "fraction");
  report.set("sched.probe_incremental_frac.final",
             ratio(from_final.incremental,
                   from_final.incremental + from_final.fallback),
             "fraction");
  report.set("sched.replayed_per_probe",
             ratio(from_init.replayed, from_init.incremental), "count");
  report.set("sched.swept_per_probe",
             ratio(from_init.swept, from_init.fallback), "count");
  char line[200];
  std::snprintf(line, sizeof line,
                "probe routing from init=%s: %zu incremental / %zu suffix "
                "sweep of %zu probes",
                w.init.c_str(), from_init.incremental, from_init.fallback,
                from_init.probes);
  report.note(line);
}

}  // namespace

void run_library(const Options& options, Report& report) {
  // Set-up, repeated: setup_s is the median of seven. One set-up takes
  // only 30-110 ms; as a median of three it spread 0.25-0.36 of its median
  // across ten runs.
  std::vector<double> setup_s;
  std::optional<Workload> workload;
  std::optional<ServiceRunner> runner;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    runner.reset();
    workload.reset();
    workload.emplace(make_workload(options));
    runner.emplace();
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const Workload& w = *workload;
  report.set("setup_s", middle_of(setup_s), "s");

  PoolResults results;
  results.first.resize(w.jobs.size());
  auto service_run = [&](std::size_t index, bool first_of_graph,
                         std::uint64_t, double& latency) {
    return runner->run(w, index, first_of_graph, latency);
  };

  std::vector<double> untraced_ms, traced_ms;
  Tracer tracer;
  ForestStats forest;
  if (!options.trace) {
    const Window window =
        run_window(w, options.seconds, results, untraced_ms, service_run);
    report_window(window, report);
  } else {
    (void)run_window(w, options.seconds / 2, results, untraced_ms,
                     service_run);
    ContextCache contexts;
    (void)run_window(w, options.seconds / 2, results, traced_ms,
                     [&](std::size_t index, bool first_of_graph,
                         std::uint64_t k, double& latency) {
                       return run_traced(w, index, first_of_graph, k,
                                         contexts, tracer, forest, latency);
                     });
  }

  // Complete the pool untimed, then check every result.
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (results.first[i].has_value()) continue;
    double latency = 0.0;
    results.record(i, runner->run(w, i, starts_graph(w, i), latency));
  }
  const std::size_t reference_mismatches = verify_pool(w, results);

  ResultDigest digest;
  std::vector<double> baselines, reported;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_family;
  std::map<std::string, std::vector<double>> evaluations;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Outcome& out = *results.first[i];
    digest.add(i, out.predicted);
    digest.add(i, out.reported);
    baselines.push_back(out.baseline);
    reported.push_back(out.reported);
    auto& fam = by_family[w.jobs[i].family];
    fam.first.push_back(out.baseline);
    fam.second.push_back(out.reported);
    evaluations[w.jobs[i].family].push_back(
        static_cast<double>(out.evaluations));
  }
  report.note("digest " + options.workload + " seed " +
              std::to_string(options.seed) + ": " + digest.hex() + " (" +
              std::to_string(w.jobs.size()) + " pool jobs)");

  report.attempted = results.attempted;
  report.failed = results.errors + results.mismatches + reference_mismatches;
  report.correct = report.failed == 0;

  if (!options.trace) {
    report.set("improvement_mean",
               average_positive_relative_improvement(baselines, reported),
               "fraction");
    report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  // ---- per-layer metrics of the traced run ----
  const auto self = tracer.self_ms();
  auto span_mean = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : mean_of(it->second);
  };
  report.set("sched.reporting_build_ms",
             span_mean("sched.ReportingContext.build"), "ms");
  report.set("sched.evaluator_build_ms", span_mean("sched.Evaluator"), "ms");
  report.set("sched.reporting_eval_ms",
             span_mean("sched.ReportingContext.evaluate"), "ms");
  report.set("mappers.create_ms", span_mean("mappers.create"), "ms");
  report.set("workflows.materialize_ms", mean_of(w.materialize_ms), "ms");
  if (!forest.cuts.empty()) {
    report.set("sp.forest_ms", span_mean("sp.grow_decomposition_forest"),
               "ms");
    report.set("sp.cuts_mean", mean_of(forest.cuts), "count");
    report.set("sp.subgraphs_mean", mean_of(forest.subgraphs), "count");
  }
  for (const std::string& f : w.families) {
    const auto it = self.find("mappers." + f + ".map");
    report.set_percentile("mappers." + f + ".map_ms_p50",
                          guarded_percentile(it == self.end()
                                                 ? std::vector<double>{}
                                                 : it->second,
                                             0.5),
                          "ms");
    report.set("mappers." + f + ".evaluations_mean", mean_of(evaluations[f]),
               "count");
    report.set("mappers." + f + ".improvement_mean",
               average_positive_relative_improvement(by_family[f].first,
                                                     by_family[f].second),
               "fraction");
  }

  const Percentile untraced_p50 = guarded_percentile(untraced_ms, 0.5);
  const Percentile traced_p50 = guarded_percentile(traced_ms, 0.5);
  if (untraced_p50.ok && traced_p50.ok) {
    report.set("trace.overhead_frac",
               traced_p50.value / untraced_p50.value - 1.0, "fraction");
  }
  // Coverage over the jobs both windows ran (each starts at pool job 0).
  const std::size_t common = std::min(untraced_ms.size(), traced_ms.size());
  double untraced_total = 0.0;
  for (std::size_t k = 0; k < common; ++k) untraced_total += untraced_ms[k];
  const double stage_total = tracer.self_ms_sum(
      [](const std::string& name) {
        for (const char* stage : kStageSpans) {
          if (name == stage) return true;
        }
        return name.rfind("mappers.", 0) == 0 && name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".map") == 0;
      },
      common);
  report.set("trace.unattributed_frac",
             untraced_total > 0.0 ? 1.0 - stage_total / untraced_total : 0.0,
             "fraction");

  if (!w.init.empty()) report_probe_metrics(w, results, options.seed, report);
  time_graph_layers(w.graphs, *w.platform, kReportingOrders, options.seed,
                    report);

  tracer.write_json(options.work_dir + "/trace-" + options.workload + "-" +
                    std::to_string(options.seed) + ".json");
}

}  // namespace spbench

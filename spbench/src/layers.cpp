#include <span>

#include "model/cost_model.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/problem_hash.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace spbench {

using namespace spmap;

namespace {

/// Mean ms per call of `fn` over `items`.
template <typename T, typename Fn>
double mean_ms_per_item(const std::vector<T>& items, Fn&& fn) {
  if (items.empty()) return 0.0;
  const std::int64_t start = now_ns();
  for (const T& item : items) fn(item);
  return ms_between(start, now_ns()) / static_cast<double>(items.size());
}

}  // namespace

void time_frame_layers(const std::vector<std::string>& frames,
                       Report& report) {
  if (frames.empty()) return;
  double bytes = 0.0;
  for (const std::string& f : frames) bytes += static_cast<double>(f.size());
  report.set("util.frame_kb_mean",
             bytes / 1024.0 / static_cast<double>(frames.size()), "KB");

  std::size_t produced = 0;
  report.set("util.frame_read_ms",
             mean_ms_per_item(frames,
                              [&](const std::string& f) {
                                FrameReader reader;
                                std::vector<std::string> out;
                                reader.feed(f + "\n", out);
                                for (const std::string& line : out) {
                                  produced += is_valid_utf8(line) ? 1 : 0;
                                }
                              }),
             "ms");
  require(produced == frames.size(), "frame layer: a frame did not decode");

  std::vector<Json> parsed;
  parsed.reserve(frames.size());
  report.set("util.json_parse_ms",
             mean_ms_per_item(frames,
                              [&](const std::string& f) {
                                parsed.push_back(Json::parse(f));
                              }),
             "ms");
  std::size_t dumped = 0;
  report.set("util.json_dump_ms",
             mean_ms_per_item(parsed,
                              [&](const Json& j) { dumped += j.dump().size(); }),
             "ms");
  require(dumped > 0, "frame layer: empty dump");
}

void time_graph_layers(
    const std::vector<std::shared_ptr<const TaskGraph>>& graphs,
    const Platform& platform, std::size_t reporting_orders,
    std::uint64_t seed, Report& report) {
  if (graphs.empty()) return;
  std::vector<double> nodes, edges;
  std::vector<std::string> docs;
  for (const auto& g : graphs) {
    nodes.push_back(static_cast<double>(g->dag.node_count()));
    edges.push_back(static_cast<double>(g->dag.edge_count()));
    docs.push_back(one_line(to_json(g->dag, g->attrs)));
  }
  report.set("graph.nodes_mean", mean_of(nodes), "count");
  report.set("graph.edges_mean", mean_of(edges), "count");

  std::size_t parsed_nodes = 0;
  report.set("graph.parse_ms",
             mean_ms_per_item(docs,
                              [&](const std::string& d) {
                                parsed_nodes +=
                                    task_graph_from_json(d).dag.node_count();
                              }),
             "ms");
  require(static_cast<double>(parsed_nodes) ==
              mean_of(nodes) * static_cast<double>(graphs.size()),
          "graph layer: parsed graphs lost nodes");
  // Library workloads have no wire: their frames are the graph documents.
  if (!report.has("util.json_parse_ms")) time_frame_layers(docs, report);

  report.set("sched.problem_hash_ms",
             mean_ms_per_item(graphs,
                              [](const std::shared_ptr<const TaskGraph>& g) {
                                (void)task_graph_hash(*g);
                                (void)structural_task_graph_hash(*g);
                              }),
             "ms");

  std::vector<double> cost_ms, eval_build_ms, reporting_ms, eval_ns, batch_ns;
  Rng rng(derive_seed(seed, 90, 0));
  for (const auto& g : graphs) {
    std::int64_t t = now_ns();
    const CostModel cost(g->dag, g->attrs, platform);
    cost_ms.push_back(ms_between(t, now_ns()));

    t = now_ns();
    const Evaluator eval(cost);
    eval_build_ms.push_back(ms_between(t, now_ns()));

    t = now_ns();
    const Evaluator reporting(cost, {.random_orders = reporting_orders});
    (void)reporting.default_mapping_makespan();
    reporting_ms.push_back(ms_between(t, now_ns()));

    std::vector<Mapping> mappings;
    for (int i = 0; i < 64; ++i) {
      mappings.push_back(random_feasible_mapping(cost, rng));
    }
    EvalContext ctx;
    double sink = 0.0;
    t = now_ns();
    for (const Mapping& m : mappings) sink += eval.evaluate(m, ctx);
    eval_ns.push_back(1e6 * ms_between(t, now_ns()) /
                      static_cast<double>(mappings.size()));

    t = now_ns();
    const std::vector<double> batch =
        eval.evaluate_batch(std::span<const Mapping>(mappings));
    batch_ns.push_back(1e6 * ms_between(t, now_ns()) /
                       static_cast<double>(mappings.size()));
    double batch_sink = 0.0;
    for (const double v : batch) batch_sink += v;
    require(batch_sink == sink,
            "sched layer: evaluate_batch disagrees with evaluate");
  }
  report.set("model.cost_model_ms", mean_of(cost_ms), "ms");
  if (!report.has("sched.evaluator_build_ms")) {
    report.set("sched.evaluator_build_ms", mean_of(eval_build_ms), "ms");
  }
  if (!report.has("sched.reporting_build_ms")) {
    report.set("sched.reporting_build_ms", mean_of(reporting_ms), "ms");
  }
  report.set("sched.evaluate_ns", mean_of(eval_ns), "ns");
  report.set("sched.evaluate_batch_ns_per_item", mean_of(batch_ns), "ns");
}

}  // namespace spbench

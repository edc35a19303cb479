/// Differential property sweep for the incremental delta-evaluation engine:
/// on random (SP and almost-SP) graphs, random reassignment sequences with
/// interleaved undos must keep IncrementalEvaluator, the flat Evaluator and
/// the naive ReferenceEvaluator in exact agreement — makespans, per-task
/// times and area-feasibility verdicts — after every single apply/undo.
/// Well over 1000 randomized cases run across the parameter grid (a case =
/// one apply or undo followed by the three-way comparison).
///
/// The grid spans both the paper platform and the wide manycore platform,
/// and every hybrid probe mode: kAuto (the deterministic position-count
/// rule), kForceIncremental and kForceFallback. Agreement in the forced
/// modes proves each probe path is bit-identical on its own, not just
/// whichever one the rule happens to pick. Applies and undos re-record the
/// suffix; a canonical-records test checks that they leave the use counts
/// and checkpoints exactly as a fresh reset would. The routing tests at the
/// end pin the rule itself: the same
/// probe stream takes the same route on every engine, and the auto-mode
/// grid exercises both paths on each platform.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/reference_evaluator.hpp"

namespace spmap {
namespace {

struct IncCase {
  std::size_t nodes;
  std::size_t extra_edges;
  std::size_t moves;
  std::uint64_t seed;
  bool wide = false;  // wide manycore platform instead of the paper one
  ProbeMode mode = ProbeMode::kAuto;
};

/// One grid case's problem: graph, model and the evaluators under test.
struct Problem {
  explicit Problem(const IncCase& c)
      : rng_(c.seed),
        platform_(c.wide ? manycore_platform() : reference_platform()) {
    Dag base = generate_sp_dag(c.nodes, rng_);
    dag_ = add_random_edges(base, c.extra_edges, rng_);
    attrs_ = random_task_attrs(dag_, rng_);
    cost_.emplace(dag_, attrs_, platform_);
    eval_.emplace(*cost_);  // one (breadth-first) order: the bound order
    ref_.emplace(*cost_);
  }

  Rng rng_;
  Platform platform_;
  Dag dag_;
  TaskAttrs attrs_;
  std::optional<CostModel> cost_;
  std::optional<Evaluator> eval_;
  std::optional<ReferenceEvaluator> ref_;
};

/// The route a fresh kAuto engine takes over a seeded probe/apply/undo
/// stream: one flag per probe (true = suffix sweep), then the four path
/// counters.
struct RouteTrace {
  std::vector<bool> fallback;
  std::size_t incremental_probes = 0;
  std::size_t fallback_probes = 0;
  std::size_t replayed = 0;
  std::size_t swept = 0;
};

RouteTrace trace_routes(const Evaluator& eval, const Mapping& start,
                        std::size_t steps, std::uint64_t seed) {
  IncrementalEvaluator inc(eval);
  inc.reset(start);
  const std::size_t devices = eval.cost().platform().device_count();
  Rng rng(seed);
  RouteTrace trace;
  for (std::size_t i = 0; i < steps; ++i) {
    if (inc.depth() > 0 && rng.chance(0.2)) {
      inc.undo();
    } else if (rng.chance(0.3)) {
      inc.apply(random_reassignment(inc.mapping(), devices, rng));
    } else {
      inc.probe(random_reassignment(inc.mapping(), devices, rng));
      trace.fallback.push_back(inc.last_probe_fallback());
    }
  }
  trace.incremental_probes = inc.incremental_probe_count();
  trace.fallback_probes = inc.fallback_probe_count();
  trace.replayed = inc.incremental_replayed_total();
  trace.swept = inc.fallback_swept_total();
  return trace;
}

class IncrementalProperty : public ::testing::TestWithParam<IncCase>,
                            protected Problem {
 protected:
  IncrementalProperty() : Problem(GetParam()) {}

  /// The three-way agreement that must hold after every state change.
  void expect_agreement(const IncrementalEvaluator& inc,
                        const Mapping& expected_mapping) {
    ASSERT_EQ(inc.mapping(), expected_mapping);
    const double flat = eval_->evaluate_order(expected_mapping, inc.order());
    const double naive = ref_->evaluate_order(expected_mapping, inc.order());
    EXPECT_EQ(inc.order_makespan(), flat);
    EXPECT_EQ(inc.order_makespan(), naive);
    // Per-task times, not just the max: the convenience overload above
    // leaves them in the evaluator scratch.
    const auto& start = eval_->last_start_times();
    const auto& finish = eval_->last_finish_times();
    for (std::size_t v = 0; v < expected_mapping.size(); ++v) {
      ASSERT_EQ(inc.start_times()[v], start[v]) << "node " << v;
      ASSERT_EQ(inc.finish_times()[v], finish[v]) << "node " << v;
    }
    // Feasibility-aware makespan matches the full evaluator verdict.
    EXPECT_EQ(inc.makespan(), eval_->evaluate(expected_mapping));
    EXPECT_EQ(inc.feasible(), cost_->area_feasible(expected_mapping));
  }
};

TEST_P(IncrementalProperty, RandomWalkAgreesAfterEveryApplyAndUndo) {
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(GetParam().mode);
  Mapping current = random_feasible_mapping(*cost_, rng_);
  inc.reset(current);
  expect_agreement(inc, current);

  // History of mappings for undo verification; history.back() == current.
  std::vector<Mapping> history{current};
  for (std::size_t i = 0; i < GetParam().moves; ++i) {
    const bool do_undo = inc.depth() > 0 && rng_.chance(0.3);
    if (do_undo) {
      inc.undo();
      history.pop_back();
    } else {
      const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      inc.apply({node, device});
      Mapping next = history.back();
      next[node] = device;
      history.push_back(std::move(next));
    }
    ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, history.back()));
    // Probe from this (arbitrarily mutated) state too: trace-free probing
    // must agree with the full evaluator and leave no mark.
    if (rng_.chance(0.5)) {
      const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      Mapping probed = history.back();
      probed[node] = device;
      EXPECT_EQ(inc.probe({node, device}), eval_->evaluate(probed));
      ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, history.back()));
    }
  }
  // Unwind everything: the initial state must come back exactly.
  while (inc.depth() > 0) {
    inc.undo();
    history.pop_back();
  }
  ASSERT_EQ(history.size(), 1u);
  expect_agreement(inc, history.front());
}

TEST_P(IncrementalProperty, ProbeLeavesStateUntouched) {
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(GetParam().mode);
  const Mapping mapping = random_feasible_mapping(*cost_, rng_);
  inc.reset(mapping);
  const double before = inc.makespan();
  for (std::size_t i = 0; i < 25; ++i) {
    const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
    const DeviceId device(
        static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
    Mapping probed = mapping;
    probed[node] = device;
    EXPECT_EQ(inc.probe({node, device}), eval_->evaluate(probed));
    EXPECT_EQ(inc.depth(), 0u);
    EXPECT_EQ(inc.makespan(), before);
    EXPECT_EQ(inc.mapping(), mapping);
  }
}

TEST_P(IncrementalProperty, CommitKeepsStateAndClearsHistory) {
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(GetParam().mode);
  Mapping current = random_feasible_mapping(*cost_, rng_);
  inc.reset(current);
  for (std::size_t i = 0; i < 10; ++i) {
    const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
    const DeviceId device(
        static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
    inc.apply({node, device});
    current[node] = device;
  }
  inc.commit();
  EXPECT_EQ(inc.depth(), 0u);
  expect_agreement(inc, current);
  EXPECT_THROW(inc.undo(), Error);
}

constexpr ProbeMode kInc = ProbeMode::kForceIncremental;
constexpr ProbeMode kFb = ProbeMode::kForceFallback;

TEST_P(IncrementalProperty, ApplyAndUndoLeaveCanonicalRecords) {
  // Times alone do not show that the re-recorded use counts and
  // checkpoints are canonical; the skip-detecting probe reads both (its
  // early exit and its state reconstruction), so after every apply and
  // undo it must walk exactly as it does on a freshly reset engine.
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(kInc);
  const Mapping initial = random_feasible_mapping(*cost_, rng_);
  inc.reset(initial);
  std::vector<Mapping> history{initial};
  Rng probe_rng(GetParam().seed + 1000);
  const auto expect_canonical = [&] {
    ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, history.back()));
    IncrementalEvaluator fresh(*eval_);
    fresh.set_probe_mode(kInc);
    fresh.reset(history.back());
    for (std::size_t i = 0; i < 8; ++i) {
      const TaskReassignment move = random_reassignment(
          history.back(), platform_.device_count(), probe_rng);
      ASSERT_EQ(inc.probe(move), fresh.probe(move));
      ASSERT_EQ(inc.last_replayed(), fresh.last_replayed());
      ASSERT_EQ(inc.last_recomputed(), fresh.last_recomputed());
    }
  };
  for (std::size_t i = 0; i < GetParam().moves; ++i) {
    if (inc.depth() > 0 && rng_.chance(0.2)) {
      inc.undo();
      history.pop_back();
    } else {
      const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      inc.apply({node, device});
      Mapping next = history.back();
      next[node] = device;
      history.push_back(std::move(next));
    }
    ASSERT_NO_FATAL_FAILURE(expect_canonical());
  }
  while (inc.depth() > 0) {
    inc.undo();
    history.pop_back();
    ASSERT_NO_FATAL_FAILURE(expect_canonical());
  }
  ASSERT_EQ(history.size(), 1u);
}

const IncCase kGrid[] = {
    // Paper platform, auto routing (the production configuration).
    IncCase{2, 0, 30, 41}, IncCase{8, 0, 60, 42}, IncCase{8, 4, 60, 43},
    IncCase{25, 0, 80, 44}, IncCase{25, 12, 80, 45},
    IncCase{60, 0, 120, 46}, IncCase{60, 30, 120, 47},
    IncCase{120, 60, 160, 48}, IncCase{250, 50, 200, 49},
    IncCase{500, 0, 220, 50},
    // Wide manycore platform, auto routing.
    IncCase{25, 12, 80, 51, true}, IncCase{60, 30, 120, 52, true},
    IncCase{250, 50, 200, 53, true}, IncCase{500, 0, 220, 54, true},
    // Forced modes: each probe path must be exact on its own, on both
    // platforms, dense and sparse graphs alike.
    IncCase{60, 30, 120, 55, false, kFb},
    IncCase{120, 60, 160, 56, false, kFb},
    IncCase{500, 0, 220, 57, false, kFb},
    IncCase{120, 60, 160, 58, false, kInc},
    IncCase{60, 30, 120, 59, true, kFb},
    IncCase{250, 50, 200, 60, true, kFb},
    IncCase{250, 50, 200, 61, true, kInc},
    IncCase{500, 0, 220, 62, true, kInc}};

TEST_P(IncrementalProperty, AutoRoutingIsDeterministic) {
  // Two fresh engines on one Evaluator, one seeded stream: the route is a
  // function of the moves alone, never of timing.
  const Mapping start = random_feasible_mapping(*cost_, rng_);
  const RouteTrace first = trace_routes(*eval_, start, 4 * GetParam().moves,
                                        GetParam().seed);
  const RouteTrace second = trace_routes(*eval_, start, 4 * GetParam().moves,
                                         GetParam().seed);
  EXPECT_EQ(first.fallback, second.fallback);
  EXPECT_EQ(first.incremental_probes, second.incremental_probes);
  EXPECT_EQ(first.fallback_probes, second.fallback_probes);
  EXPECT_EQ(first.replayed, second.replayed);
  EXPECT_EQ(first.swept, second.swept);
}

TEST(IncrementalRouting, AutoGridTakesBothPathsOnEachPlatform) {
  // The auto rows of the grid must keep covering both exact paths, or the
  // RandomWalk agreement there would silently test only one of them.
  std::size_t incremental[2] = {0, 0};
  std::size_t fallback[2] = {0, 0};
  for (const IncCase& c : kGrid) {
    if (c.mode != ProbeMode::kAuto) continue;
    Problem p(c);
    const Mapping start = random_feasible_mapping(*p.cost_, p.rng_);
    const RouteTrace trace = trace_routes(*p.eval_, start, 4 * c.moves, c.seed);
    incremental[c.wide] += trace.incremental_probes;
    fallback[c.wide] += trace.fallback_probes;
  }
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide manycore platform" : "paper platform");
    EXPECT_GT(incremental[wide], 0u);
    EXPECT_GT(fallback[wide], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IncrementalProperty, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<IncCase>& info) {
      const char* mode = info.param.mode == kInc  ? "_finc"
                         : info.param.mode == kFb ? "_ffb"
                                                  : "";
      return "n" + std::to_string(info.param.nodes) + "_e" +
             std::to_string(info.param.extra_edges) + "_s" +
             std::to_string(info.param.seed) +
             (info.param.wide ? "_wide" : "") + mode;
    });

}  // namespace
}  // namespace spmap

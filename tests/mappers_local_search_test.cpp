/// Pinned local-search results. hillclimb, anneal and tabu run from HEFT on
/// one fixed-seed 600-task almost-SP graph on the committed paper platform
/// (`scenarios/platforms/paper_cpu_gpu_fpga.json`), and each predicted
/// makespan and a content hash of each mapping must match the pinned
/// values exactly. With n > 512 on this saturated platform the
/// IncrementalEvaluator sends most probes down the suffix sweep, and every
/// accepted move (148 across the three searches) re-records the suffix, so
/// a change to either that alters any search result fails here, not only
/// in the end-to-end benchmark.
///
/// The pins were captured before apply re-recorded the suffix; they may
/// only change with a deliberate change of the searches themselves.

#include <gtest/gtest.h>

#include <string>

#include "mappers/registry.hpp"
#include "model/platform_io.hpp"
#include "sched/evaluator.hpp"
#include "util/content_hash.hpp"
#include "workflows/workload_spec.hpp"

namespace spmap {
namespace {

struct Pin {
  const char* spec;
  double makespan;
  const char* mapping_hash;
};

std::string mapping_hash(const Mapping& mapping) {
  ContentHasher hasher("local-search-pin");
  for (const DeviceId d : mapping.device) hasher.u64(d.v);
  return hasher.digest().hex();
}

class LocalSearchPins : public ::testing::TestWithParam<Pin> {};

TEST_P(LocalSearchPins, ResultMatchesPin) {
  WorkloadSpec workload;
  workload.kind = WorkloadKind::AlmostSp;
  workload.tasks = 600;
  workload.extra_edges = 120;
  Rng graph_rng(600);
  const TaskGraph graph = materialize_workload(workload, graph_rng);
  ASSERT_GT(graph.dag.node_count(), 512u);
  const Platform platform =
      load_platform_file(std::string(SPMAP_SCENARIO_DIR) +
                         "/platforms/paper_cpu_gpu_fpga.json")
          .platform;
  const CostModel cost(graph.dag, graph.attrs, platform);
  const Evaluator eval(cost);

  Rng rng(1);
  auto mapper =
      MapperRegistry::instance().create(GetParam().spec, graph.dag, rng);
  const MapperResult result = mapper->map(eval);
  EXPECT_EQ(result.predicted_makespan, GetParam().makespan)
      << GetParam().spec;
  EXPECT_EQ(mapping_hash(result.mapping), GetParam().mapping_hash)
      << GetParam().spec;
}

const Pin kPins[] = {
    {"hillclimb:init=heft,iters=400,seed=11", 82.496253524168324,
     "c22ef0e55c7939beec0938a34082a816"},
    {"anneal:init=heft,iters=400,seed=12", 84.288251225684633,
     "f741b1605ab70be5299e487e29a8f6b1"},
    {"tabu:init=heft,iters=400,seed=13", 80.488243077791196,
     "885069ab012c68e117fe3c02b1cd2d90"},
};

INSTANTIATE_TEST_SUITE_P(
    PaperPlatform, LocalSearchPins, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      const std::string spec = info.param.spec;
      return spec.substr(0, spec.find(':'));
    });

}  // namespace
}  // namespace spmap

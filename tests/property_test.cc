// Property-based tests: random DAGs (oracle::random_dag) exercised through
// the whole pipeline. Each seed is one TEST_P instance.
#include <gtest/gtest.h>

#include "graph/cost_model.h"
#include "onnx/model_io.h"
#include "oracle.h"
#include "passes/analysis.h"
#include "passes/cluster_merging.h"
#include "passes/linear_clustering.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "sim/simulator.h"

namespace ramiel {
namespace {

class RandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphs, ClusteringIsAValidLinearPartition) {
  Graph g = oracle::random_dag(GetParam());
  Clustering lc = linear_clustering(g);
  EXPECT_NO_THROW(finalize_clustering(g, lc));
  Clustering merged = merge_clusters(g, lc);
  EXPECT_NO_THROW(finalize_clustering(g, merged));
  EXPECT_LE(merged.size(), lc.size());
}

TEST_P(RandomGraphs, DistanceDominatesNodeWeight) {
  Graph g = oracle::random_dag(GetParam());
  auto dist = distance_to_end(g);
  for (const Node& n : g.nodes()) {
    if (n.dead) continue;
    EXPECT_GE(dist[static_cast<std::size_t>(n.id)], node_weight(n));
    for (NodeId s : g.successors(n.id)) {
      EXPECT_GT(dist[static_cast<std::size_t>(n.id)],
                dist[static_cast<std::size_t>(s)]);
    }
  }
}

TEST_P(RandomGraphs, ParallelExecutionMatchesSequential) {
  oracle::check(oracle::random_source(GetParam()), {oracle::Cell{}});
}

TEST_P(RandomGraphs, HyperclusterBatchesMatchSequential) {
  oracle::check(oracle::random_source(GetParam()),
                oracle::cells({.batches = {3},
                               .hypers = {HyperMode::kPlain,
                                          HyperMode::kSwitched}}));
}

TEST_P(RandomGraphs, FoldingPreservesOutputs) {
  oracle::check(oracle::random_source(GetParam()),
                oracle::cells({.rewrites = {oracle::Rewrites::kFold}}));
}

TEST_P(RandomGraphs, SerializationRoundTripPreservesOutputs) {
  Graph g = oracle::random_dag(GetParam());
  oracle::check_rewrite(g, load_model_text(save_model_text(g)),
                        oracle::kRoundTrip);
}

TEST_P(RandomGraphs, SimulatorRespectsBounds) {
  Graph g = oracle::random_dag(GetParam());
  Clustering merged = merge_clusters(g, linear_clustering(g));
  CostProfile profile;
  profile.node_us.assign(g.nodes().size(), 10.0);
  profile.value_bytes.assign(g.values().size(), 64.0);
  SimOptions opts;
  opts.machine.per_task_overhead_us = 0.0;
  opts.machine.comm_fixed_us = 0.0;
  opts.machine.comm_per_kb_us = 0.0;
  const double seq = simulate_sequential_ms(g, profile, 1, opts);
  SimResult par = simulate_parallel(g, build_hyperclusters(g, merged, 1),
                                    profile, opts);
  // With zero overheads, parallel makespan is never worse than sequential
  // and never better than the critical path lower bound.
  EXPECT_LE(par.makespan_ms, seq + 1e-9);
  auto cp_nodes = critical_path_nodes(g);
  double cp_lower = 0.0;
  for (NodeId id : cp_nodes) {
    if (g.node(id).kind != OpKind::kConstant) cp_lower += 10.0 / 1e3;
  }
  EXPECT_GE(par.makespan_ms + 1e-9, cp_lower);
}

TEST_P(RandomGraphs, PipelineEndToEnd) {
  PipelineOptions opts;
  opts.constant_folding = true;
  CompiledModel cm = compile_model(oracle::random_dag(GetParam()), opts);
  EXPECT_GE(cm.clustering.size(), 1);
  EXPECT_FALSE(cm.code.parallel_source.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphs,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

}  // namespace
}  // namespace ramiel

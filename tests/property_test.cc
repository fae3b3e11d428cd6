// Property-based tests: random DAGs exercised through the whole pipeline.
// Every value has the same shape, so any wiring is type-correct; ops are
// numerically tame (no exp blow-ups). Each seed is one TEST_P instance.
#include <gtest/gtest.h>

#include "graph/cost_model.h"
#include "graph/shape_inference.h"
#include "onnx/model_io.h"
#include "passes/analysis.h"
#include "passes/cluster_merging.h"
#include "passes/constant_folding.h"
#include "passes/linear_clustering.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

/// Random DAG over [1, 8]-shaped values.
Graph random_graph(std::uint64_t seed) {
  Rng rng(seed);
  Graph g(str_cat("random_", seed));
  const Shape shape{1, 8};

  std::vector<ValueId> pool;
  const int num_inputs = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < num_inputs; ++i) {
    ValueId v = g.add_value(str_cat("in", i), shape);
    g.mark_input(v);
    pool.push_back(v);
  }

  const int num_nodes = 10 + static_cast<int>(rng.next_below(40));
  static constexpr OpKind kUnary[] = {OpKind::kRelu, OpKind::kSigmoid,
                                      OpKind::kTanh, OpKind::kNeg,
                                      OpKind::kIdentity};
  static constexpr OpKind kBinary[] = {OpKind::kAdd, OpKind::kSub,
                                       OpKind::kMul};
  for (int i = 0; i < num_nodes; ++i) {
    const std::uint64_t dice = rng.next_below(10);
    NodeId n;
    if (dice == 0) {
      // Constant node feeding later ops (fold fodder).
      n = g.add_node(OpKind::kConstant, str_cat("const", i), {});
      Tensor payload = Tensor::random(shape, rng, -0.5f, 0.5f);
      g.value(g.node(n).outputs[0]).shape = payload.shape();
      g.value(g.node(n).outputs[0]).const_data = std::move(payload);
    } else if (dice <= 4) {
      ValueId a = pool[rng.next_below(pool.size())];
      n = g.add_node(kUnary[rng.next_below(5)], str_cat("u", i), {a});
    } else {
      ValueId a = pool[rng.next_below(pool.size())];
      ValueId b = pool[rng.next_below(pool.size())];
      n = g.add_node(kBinary[rng.next_below(3)], str_cat("b", i), {a, b});
    }
    pool.push_back(g.node(n).outputs[0]);
  }
  // Outputs: every value with no consumer.
  int outputs = 0;
  for (const Value& v : g.values()) {
    if (v.consumers.empty() && v.producer != kNoNode) {
      g.mark_output(v.id);
      ++outputs;
    }
  }
  if (outputs == 0) g.mark_output(pool.back());
  infer_shapes(g);
  g.validate();
  return g;
}

class RandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphs, ClusteringIsAValidLinearPartition) {
  Graph g = random_graph(GetParam());
  Clustering lc = linear_clustering(g);
  EXPECT_NO_THROW(finalize_clustering(g, lc));
  Clustering merged = merge_clusters(g, lc);
  EXPECT_NO_THROW(finalize_clustering(g, merged));
  EXPECT_LE(merged.size(), lc.size());
}

TEST_P(RandomGraphs, DistanceDominatesNodeWeight) {
  Graph g = random_graph(GetParam());
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
  Graph g = random_graph(GetParam());
  Clustering merged = merge_clusters(g, linear_clustering(g));
  Rng rng(GetParam() + 1);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, build_hyperclusters(g, merged, 1));
  auto a = seq.run(inputs);
  auto b = par.run(inputs);
  ASSERT_EQ(a[0].size(), b[0].size());
  for (const auto& [key, value] : a[0]) {
    EXPECT_TRUE(allclose(value, b[0].at(key), 1e-5f, 1e-5f)) << key;
  }
}

TEST_P(RandomGraphs, HyperclusterBatchesMatchSequential) {
  Graph g = random_graph(GetParam());
  Clustering merged = merge_clusters(g, linear_clustering(g));
  const int batch = 3;
  Rng rng(GetParam() + 2);
  auto inputs = make_example_inputs(g, batch, rng);
  SequentialExecutor seq(&g);
  auto expected = seq.run(inputs);
  for (bool switched : {false, true}) {
    Hyperclustering hc =
        switched ? build_switched_hyperclusters(g, merged, batch)
                 : build_hyperclusters(g, merged, batch);
    ParallelExecutor par(&g, hc);
    auto got = par.run(inputs);
    for (int s = 0; s < batch; ++s) {
      for (const auto& [key, value] : expected[static_cast<std::size_t>(s)]) {
        EXPECT_TRUE(allclose(value, got[static_cast<std::size_t>(s)].at(key),
                             1e-5f, 1e-5f))
            << key << " sample " << s << " switched=" << switched;
      }
    }
  }
}

TEST_P(RandomGraphs, FoldingPreservesOutputs) {
  Graph original = random_graph(GetParam());
  Graph folded = random_graph(GetParam());
  constant_propagation_dce(folded);
  folded = folded.compacted();
  Rng rng(GetParam() + 3);
  auto inputs = make_example_inputs(original, 1, rng);
  SequentialExecutor a(&original);
  SequentialExecutor b(&folded);
  auto ra = a.run(inputs);
  auto rb = b.run(inputs);
  ASSERT_EQ(ra[0].size(), rb[0].size());
  for (const auto& [key, value] : ra[0]) {
    EXPECT_TRUE(allclose(value, rb[0].at(key), 1e-5f, 1e-5f)) << key;
  }
}

TEST_P(RandomGraphs, SerializationRoundTripPreservesOutputs) {
  Graph g = random_graph(GetParam());
  Graph loaded = load_model_text(save_model_text(g));
  Rng rng(GetParam() + 4);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor a(&g);
  SequentialExecutor b(&loaded);
  auto ra = a.run(inputs);
  auto rb = b.run(inputs);
  for (const auto& [key, value] : ra[0]) {
    EXPECT_TRUE(allclose(value, rb[0].at(key), 1e-6f, 1e-5f)) << key;
  }
}

TEST_P(RandomGraphs, SimulatorRespectsBounds) {
  Graph g = random_graph(GetParam());
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
  CompiledModel cm = compile_model(random_graph(GetParam()), opts);
  EXPECT_GE(cm.clustering.size(), 1);
  EXPECT_FALSE(cm.code.parallel_source.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphs,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

}  // namespace
}  // namespace ramiel

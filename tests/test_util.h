// Shared helpers for the test suite: small hand-built graphs with known
// structure, the pipeline's clustering, seeded inputs, a traced run, tensor
// comparison utilities, a scoped kernel-path pin, and a single-pattern
// runner.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "graph/shape_inference.h"
#include "passes/cluster_merging.h"
#include "passes/hypercluster.h"
#include "passes/linear_clustering.h"
#include "passes/patterns/driver.h"
#include "passes/patterns/registry.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "sim/cost_profile.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace ramiel::testing {

/// A -> B -> C chain of Relu nodes over a [1, 4] input.
inline Graph make_chain_graph() {
  Graph g("chain");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId b = g.add_node(OpKind::kRelu, "b", {g.node(a).outputs[0]});
  NodeId c = g.add_node(OpKind::kRelu, "c", {g.node(b).outputs[0]});
  g.mark_output(g.node(c).outputs[0]);
  infer_shapes(g);
  return g;
}

/// Diamond: in -> a -> {b, c} -> d (Add). b is heavier than c when using
/// op kinds with different weights (b: Gemm via MatMul? kept elementwise
/// here; pass tests that need weights build their own).
inline Graph make_diamond_graph() {
  Graph g("diamond");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId b = g.add_node(OpKind::kSigmoid, "b", {g.node(a).outputs[0]});
  NodeId c = g.add_node(OpKind::kTanh, "c", {g.node(a).outputs[0]});
  NodeId d = g.add_node(OpKind::kAdd, "d",
                        {g.node(b).outputs[0], g.node(c).outputs[0]});
  g.mark_output(g.node(d).outputs[0]);
  infer_shapes(g);
  return g;
}

/// Fork-join with a constant side chain:
/// in -> a -> join(Add) <- constchain (Constant -> Exp).
inline Graph make_const_side_graph() {
  Graph g("const_side");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId k = g.add_node(OpKind::kConstant, "k", {});
  g.value(g.node(k).outputs[0]).const_data = Tensor::full(Shape{1, 4}, 0.5f);
  g.value(g.node(k).outputs[0]).shape = Shape{1, 4};
  NodeId e = g.add_node(OpKind::kExp, "e", {g.node(k).outputs[0]});
  NodeId d = g.add_node(OpKind::kAdd, "d",
                        {g.node(a).outputs[0], g.node(e).outputs[0]});
  g.mark_output(g.node(d).outputs[0]);
  infer_shapes(g);
  return g;
}

/// Linear clustering, then merging: the clustering the pipeline builds.
inline Clustering cluster(const Graph& g) {
  return merge_clusters(g, linear_clustering(g));
}

/// cluster(g) hyperclustered for `batch` samples.
inline Hyperclustering hypercluster(const Graph& g, int batch = 1) {
  return build_hyperclusters(g, cluster(g), batch);
}

/// Every live node appears in exactly one cluster.
inline void expect_partition(const Graph& g, const Clustering& c) {
  std::set<NodeId> seen;
  for (const Cluster& cl : c.clusters) {
    for (NodeId id : cl.nodes) {
      EXPECT_TRUE(seen.insert(id).second) << "node " << id << " duplicated";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.live_node_count());
}

/// A profile with fixed per-node cost and 1 KiB per value.
inline CostProfile uniform_profile(const Graph& g, double us) {
  CostProfile p;
  p.node_us.assign(g.nodes().size(), us);
  p.value_bytes.assign(g.values().size(), 1024.0);
  for (const Node& n : g.nodes()) {
    if (!n.dead && n.kind != OpKind::kConstant) p.total_us += us;
  }
  return p;
}

/// make_example_inputs drawn from a fresh Rng(seed).
inline std::vector<TensorMap> example_inputs(const Graph& g, int batch,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return make_example_inputs(g, batch, rng);
}

/// One run of `exec` with tracing on; returns its profile.
template <typename Executor>
Profile traced_run(Executor& exec, const std::vector<TensorMap>& inputs) {
  Profile profile;
  RunOptions options;
  options.trace = true;
  exec.run(inputs, options, &profile);
  return profile;
}

/// EXPECT that two tensors match in shape and content.
inline void expect_tensors_close(const Tensor& a, const Tensor& b,
                                 float atol = 1e-5f, float rtol = 1e-5f) {
  ASSERT_EQ(a.shape().dims(), b.shape().dims());
  EXPECT_TRUE(allclose(a, b, atol, rtol));
}

/// True when two float buffers hold the same bits.
inline bool same_bits(const std::vector<float>& a,
                      const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Pins the kernel path for a scope, then returns to env-based selection.
class ScopedPath {
 public:
  explicit ScopedPath(kernels::Path p) { kernels::force_kernel_path(p); }
  ~ScopedPath() { kernels::force_kernel_path(std::nullopt); }
};

/// Options that enable exactly one registered pattern rule.
inline patterns::PatternRunOptions only_pattern(const std::string& name) {
  patterns::PatternRunOptions options;
  for (const std::string& n : patterns::pattern_registry().names()) {
    options.enable[n] = n == name;
  }
  return options;
}

/// Runs exactly one registered pattern rule to its fixed point and returns
/// how many times it applied.
inline int run_pattern(Graph& graph, const std::string& name) {
  return patterns::run_patterns(graph, only_pattern(name)).count(name);
}

}  // namespace ramiel::testing

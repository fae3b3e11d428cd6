// Shared helpers for the test suite: small hand-built graphs with known
// structure, tensor comparison utilities, a scoped kernel-path pin, and a
// single-pattern runner.
#pragma once

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/shape_inference.h"
#include "passes/patterns/driver.h"
#include "passes/patterns/registry.h"
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

/// EXPECT that two tensors match in shape and content.
inline void expect_tensors_close(const Tensor& a, const Tensor& b,
                                 float atol = 1e-5f, float rtol = 1e-5f) {
  ASSERT_EQ(a.shape().dims(), b.shape().dims());
  EXPECT_TRUE(allclose(a, b, atol, rtol));
}

/// Pins the kernel path for a scope, then returns to env-based selection.
class ScopedPath {
 public:
  explicit ScopedPath(kernels::Path p) { kernels::force_kernel_path(p); }
  ~ScopedPath() { kernels::force_kernel_path(std::nullopt); }
};

/// Runs exactly one registered pattern rule to its fixed point and returns
/// how many times it applied.
inline int run_pattern(Graph& graph, const std::string& name) {
  patterns::PatternRunOptions options;
  for (const std::string& n : patterns::pattern_registry().names()) {
    options.enable[n] = n == name;
  }
  return patterns::run_patterns(graph, options).count(name);
}

}  // namespace ramiel::testing

#include <gtest/gtest.h>

#include "graph/shape_inference.h"
#include "models/zoo.h"
#include "oracle.h"
#include "passes/cloning.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(Cloning, ReplicatesFanOutNode) {
  Graph g = testing::make_diamond_graph();  // a feeds b and c
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  CloningStats stats = clone_tasks(g, opts);
  EXPECT_EQ(stats.nodes_cloned, 1);
  EXPECT_EQ(stats.clones_created, 1);
  // a's output now has a single consumer; the clone feeds the other.
  EXPECT_EQ(g.value(g.node(0).outputs[0]).consumers.size(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Cloning, PreservesSemantics) {
  Graph original = testing::make_diamond_graph();
  Graph cloned = testing::make_diamond_graph();
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  clone_tasks(cloned, opts);

  oracle::check_rewrite(original, cloned, oracle::kSmallRewrite);
}

TEST(Cloning, NodeReadingTheValueTwiceGetsOneClone) {
  // in -> a -> {Add(a, a), Neg(a)}: a's consumer list names the Add twice,
  // once per read. The Add gets one clone feeding both of its reads.
  Graph g("double_read");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  const ValueId av = g.node(a).outputs[0];
  NodeId neg = g.add_node(OpKind::kNeg, "neg", {av});
  NodeId sum = g.add_node(OpKind::kAdd, "sum", {av, av});
  NodeId join = g.add_node(OpKind::kAdd, "join", {g.node(neg).outputs[0],
                                                  g.node(sum).outputs[0]});
  g.mark_output(g.node(join).outputs[0]);
  infer_shapes(g);
  const Graph original = g;
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  EXPECT_EQ(clone_tasks(g, opts).clones_created, 1);  // validates the graph
  EXPECT_EQ(g.value(av).consumers, std::vector<NodeId>{neg});
  oracle::check_rewrite(original, g, oracle::kSmallRewrite);
}

TEST(Cloning, RespectsWeightThreshold) {
  // A heavy fan-out node (MatMul) must not be cloned with default limits.
  Graph g("t");
  ValueId in = g.add_value("x", Shape{2, 2});
  g.mark_input(in);
  ValueId w = g.add_initializer("w", Tensor::zeros(Shape{2, 2}));
  NodeId m = g.add_node(OpKind::kMatMul, "m", {in, w});
  NodeId b1 = g.add_node(OpKind::kRelu, "b1", {g.node(m).outputs[0]});
  NodeId b2 = g.add_node(OpKind::kSigmoid, "b2", {g.node(m).outputs[0]});
  g.mark_output(g.node(b1).outputs[0]);
  g.mark_output(g.node(b2).outputs[0]);
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  CloningStats stats = clone_tasks(g, opts);
  EXPECT_EQ(stats.clones_created, 0);
}

TEST(Cloning, RespectsDepthCutoff) {
  // Fan-out at the very bottom of a deep chain is skipped with a small
  // depth fraction.
  Graph g("t");
  ValueId v = g.add_value("x", Shape{1, 4});
  g.mark_input(v);
  for (int i = 0; i < 10; ++i) {
    v = g.node(g.add_node(OpKind::kRelu, str_cat("chain", i), {v})).outputs[0];
  }
  NodeId fan = g.add_node(OpKind::kRelu, "fan", {v});
  NodeId u1 = g.add_node(OpKind::kRelu, "u1", {g.node(fan).outputs[0]});
  NodeId u2 = g.add_node(OpKind::kRelu, "u2", {g.node(fan).outputs[0]});
  g.mark_output(g.node(u1).outputs[0]);
  g.mark_output(g.node(u2).outputs[0]);
  CloningOptions shallow;
  shallow.depth_fraction = 0.2;
  EXPECT_EQ(clone_tasks(g, shallow).clones_created, 0);
  CloningOptions deep;
  deep.depth_fraction = 1.0;
  EXPECT_EQ(clone_tasks(g, deep).clones_created, 1);
}

TEST(Cloning, RespectsCloneBudget) {
  // Many fan-out nodes, tiny budget.
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  std::vector<ValueId> outs;
  for (int i = 0; i < 6; ++i) {
    NodeId fan = g.add_node(OpKind::kRelu, str_cat("fan", i), {in});
    NodeId a = g.add_node(OpKind::kRelu, str_cat("a", i),
                          {g.node(fan).outputs[0]});
    NodeId b = g.add_node(OpKind::kRelu, str_cat("b", i),
                          {g.node(fan).outputs[0]});
    outs.push_back(g.node(a).outputs[0]);
    outs.push_back(g.node(b).outputs[0]);
  }
  for (ValueId o : outs) g.mark_output(o);
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  opts.max_clones = 3;
  CloningStats stats = clone_tasks(g, opts);
  EXPECT_EQ(stats.clones_created, 3);
}

TEST(Cloning, SkipsGraphOutputProducers) {
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId u1 = g.add_node(OpKind::kRelu, "u1", {g.node(a).outputs[0]});
  NodeId u2 = g.add_node(OpKind::kRelu, "u2", {g.node(a).outputs[0]});
  g.mark_output(g.node(a).outputs[0]);  // a's output is itself a graph output
  g.mark_output(g.node(u1).outputs[0]);
  g.mark_output(g.node(u2).outputs[0]);
  CloningOptions opts;
  opts.depth_fraction = 1.0;
  EXPECT_EQ(clone_tasks(g, opts).clones_created, 0);
}

TEST(Cloning, InceptionV3GainsClones) {
  // Fig. 7: cloning applies to Inception's shallow fan-out region.
  Graph g = models::build("inception_v3");
  const int before = g.live_node_count();
  CloningStats stats = clone_tasks(g);
  EXPECT_GT(stats.clones_created, 0);
  EXPECT_EQ(g.live_node_count(), before + stats.clones_created);
  EXPECT_NO_THROW(g.validate());
}

TEST(Cloning, ModelSemanticsPreserved) {
  Graph original = models::build("googlenet");
  Graph cloned = models::build("googlenet");
  clone_tasks(cloned);
  oracle::check_rewrite(original, cloned, oracle::kZooRewrite);
}

}  // namespace
}  // namespace ramiel

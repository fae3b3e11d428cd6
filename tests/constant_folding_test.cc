#include <cmath>

#include <gtest/gtest.h>

#include "graph/shape_inference.h"
#include "models/zoo.h"
#include "models/net_builder.h"
#include "oracle.h"
#include "passes/constant_folding.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(ConstantFolding, FoldsConstOnlyChain) {
  Graph g = testing::make_const_side_graph();  // Constant -> Exp -> Add
  FoldStats stats = fold_constants(g);
  EXPECT_GE(stats.folded_nodes, 2);  // Constant node + Exp
  // The Add's second input is now a constant value.
  const Node* add = nullptr;
  for (const Node& n : g.nodes()) {
    if (!n.dead && n.kind == OpKind::kAdd) add = &n;
  }
  ASSERT_NE(add, nullptr);
  EXPECT_TRUE(g.value(add->inputs[1]).is_constant());
  // exp(0.5) baked in.
  EXPECT_NEAR(g.value(add->inputs[1]).const_data->at(0), std::exp(0.5f), 1e-5f);
}

TEST(ConstantFolding, FoldsShapeOfStaticValue) {
  Graph g("t");
  ValueId x = g.add_value("x", Shape{2, 6});
  g.mark_input(x);
  NodeId shp = g.add_node(OpKind::kShape, "s", {x});
  NodeId r = g.add_node(OpKind::kReshape, "r", {x, g.node(shp).outputs[0]});
  g.mark_output(g.node(r).outputs[0]);
  infer_shapes(g);
  fold_constants(g);
  EXPECT_TRUE(g.node(shp).dead);
  EXPECT_TRUE(g.value(g.node(shp).outputs[0]).is_constant());
  // The reshape output shape became known after folding.
  EXPECT_EQ(g.value(g.node(r).outputs[0]).shape, Shape({2, 6}));
}

TEST(ConstantFolding, DoesNotTouchDataDependentNodes) {
  Graph g = testing::make_diamond_graph();
  FoldStats stats = fold_constants(g);
  EXPECT_EQ(stats.folded_nodes, 0);
  EXPECT_EQ(g.live_node_count(), 4);
}

TEST(Dce, RemovesUnreachableNodes) {
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId orphan = g.add_node(OpKind::kSigmoid, "orphan", {in});
  g.mark_output(g.node(a).outputs[0]);
  EXPECT_EQ(eliminate_dead_code(g), 1);
  EXPECT_TRUE(g.node(orphan).dead);
  EXPECT_FALSE(g.node(a).dead);
}

TEST(Dce, KeepsEverythingReachable) {
  Graph g = testing::make_diamond_graph();
  EXPECT_EQ(eliminate_dead_code(g), 0);
}

TEST(Dce, ConstantInputsCutReachability) {
  // After folding, the chain feeding a now-constant value is dead.
  Graph g = testing::make_const_side_graph();
  fold_constants(g);
  const int removed = eliminate_dead_code(g);
  EXPECT_GE(removed, 0);  // chain already tombstoned by folding
  EXPECT_NO_THROW(g.validate());
}

TEST(CpDce, FullPipelinePreservesSemantics) {
  // Folding + DCE must not change model outputs.
  for (const std::string name : {"yolo_v5", "bert"}) {
    Graph original = models::build(name);
    Graph folded = models::build(name);
    constant_propagation_dce(folded);
    folded = folded.compacted();

    SCOPED_TRACE(name);
    oracle::check_rewrite(original, folded, oracle::kZooRewrite);
  }
}

TEST(CpDce, ShrinksFoldableModels) {
  // Table III models all lose nodes to CP+DCE.
  for (const std::string name : {"yolo_v5", "nasnet", "bert"}) {
    Graph g = models::build(name);
    const int before = g.live_node_count();
    FoldStats stats = constant_propagation_dce(g);
    EXPECT_GT(stats.folded_nodes, 0) << name;
    EXPECT_LT(g.live_node_count(), before) << name;
  }
}

TEST(CpDce, NoOpOnConstFreeModels) {
  // Squeezenet/Googlenet "do not demonstrate the presence of constants"
  // (§V-C) — only initializers, nothing foldable.
  for (const std::string name : {"squeezenet", "googlenet"}) {
    Graph g = models::build(name);
    const int before = g.live_node_count();
    constant_propagation_dce(g);
    EXPECT_EQ(g.live_node_count(), before) << name;
  }
}

TEST(CpDce, IsIdempotent) {
  Graph g = models::build("yolo_v5");
  constant_propagation_dce(g);
  const int after_first = g.live_node_count();
  FoldStats second = constant_propagation_dce(g);
  EXPECT_EQ(second.folded_nodes, 0);
  EXPECT_EQ(second.dce_removed, 0);
  EXPECT_EQ(g.live_node_count(), after_first);
}


TEST(BnFolding, FoldsConvBnPairPreservingOutputs) {
  // conv -> bn -> relu with constant stats folds to conv(+bias) -> relu.
  auto build = [] {
    NetBuilder b("bnfold");
    ValueId x = b.input("x", Shape{1, 3, 6, 6});
    x = b.conv_bn_relu(x, 4, 3);
    return b.finish({x});
  };
  Graph original = build();
  Graph fused = build();
  const int folded = testing::run_pattern(fused, "fold-batch-norms");
  EXPECT_EQ(folded, 1);
  EXPECT_EQ(fused.live_node_count(), original.live_node_count() - 1);

  oracle::check_rewrite(original, fused, oracle::kWidth);
}

TEST(BnFolding, SkipsBnWithSharedConvOutput) {
  // The conv output feeds a second consumer: folding would corrupt it.
  NetBuilder b("shared");
  ValueId x = b.input("x", Shape{1, 2, 4, 4});
  ValueId c = b.conv(x, 2, 3, 1, 1, 1, /*bias=*/false);
  ValueId n = b.bn(c);
  ValueId other = b.relu(c);
  ValueId sum = b.add(n, other);
  Graph g = b.finish({sum});
  EXPECT_EQ(testing::run_pattern(g, "fold-batch-norms"), 0);
}

TEST(BnFolding, FoldsAcrossWholeModels) {
  // Retinanet / Googlenet / NASNet carry conv+bn chains.
  for (const std::string name : {"inception_v3", "retinanet", "nasnet"}) {
    Graph original = models::build(name);
    Graph fused = models::build(name);
    const int folded = testing::run_pattern(fused, "fold-batch-norms");
    EXPECT_GT(folded, 0) << name;
    EXPECT_EQ(fused.live_node_count(), original.live_node_count() - folded)
        << name;

    SCOPED_TRACE(name);
    oracle::check_rewrite(original, fused, oracle::kZooRewriteChain);
  }
}

TEST(BnFolding, IsIdempotent) {
  Graph g = models::build("inception_v3");
  const int first = testing::run_pattern(g, "fold-batch-norms");
  EXPECT_GT(first, 0);
  EXPECT_EQ(testing::run_pattern(g, "fold-batch-norms"), 0);
}

TEST(ActivationFusion, FusesConvReluPreservingOutputs) {
  // The pool keeps the relu off the graph interface (output values never
  // fuse away — their names are the model's API).
  auto build = [] {
    NetBuilder b("actfuse");
    ValueId x = b.input("x", Shape{1, 3, 6, 6});
    ValueId c = b.conv(x, 4, 3, 1, 1, 1, /*bias=*/true);
    ValueId r = b.relu(c);
    return b.finish({b.global_avg_pool(r)});
  };
  Graph original = build();
  Graph fused = build();
  const int count = testing::run_pattern(fused, "fuse-activations");
  EXPECT_EQ(count, 1);
  EXPECT_EQ(fused.live_node_count(), original.live_node_count() - 1);

  oracle::check_rewrite(original, fused, oracle::kWidth);
}

TEST(ActivationFusion, SkipsActivationWithSharedProducer) {
  // The conv output has a second consumer that needs the pre-activation
  // tensor, so the relu cannot be folded away.
  NetBuilder b("shared_act");
  ValueId x = b.input("x", Shape{1, 2, 4, 4});
  ValueId c = b.conv(x, 2, 3, 1, 1, 1, /*bias=*/false);
  ValueId r = b.relu(c);
  ValueId other = b.sigmoid(c);
  ValueId sum = b.add(r, other);
  Graph g = b.finish({sum});
  EXPECT_EQ(testing::run_pattern(g, "fuse-activations"), 0);
}

TEST(ActivationFusion, FusesAcrossWholeModelsPreservingOutputs) {
  for (const std::string name : {"squeezenet", "googlenet", "retinanet"}) {
    Graph original = models::build(name);
    Graph fused = models::build(name);
    const int count = testing::run_pattern(fused, "fuse-activations");
    EXPECT_GT(count, 0) << name;
    EXPECT_EQ(fused.live_node_count(), original.live_node_count() - count)
        << name;

    SCOPED_TRACE(name);
    oracle::check_rewrite(original, fused, oracle::kZooRewriteChain);
  }
}

TEST(ActivationFusion, IsIdempotent) {
  Graph g = models::build("squeezenet");
  const int first = testing::run_pattern(g, "fuse-activations");
  EXPECT_GT(first, 0);
  EXPECT_EQ(testing::run_pattern(g, "fuse-activations"), 0);
}

}  // namespace
}  // namespace ramiel

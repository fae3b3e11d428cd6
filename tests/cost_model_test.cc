#include <gtest/gtest.h>

#include "graph/cost_model.h"
#include "test_util.h"

namespace ramiel {
namespace {

Node make_node(OpKind kind, Attrs attrs = {}) {
  Node n;
  n.kind = kind;
  n.attrs = std::move(attrs);
  return n;
}

TEST(CostModel, ConvWeightScalesWithKernel) {
  const auto conv = [](std::int64_t k) {
    return node_weight(make_node(OpKind::kConv2d, Attrs{}.set("kernel", k)));
  };
  const auto w1 = conv(1);
  const auto w3 = conv(3);
  const auto w5 = conv(5);
  const auto w7 = conv(7);
  EXPECT_LT(w1, w3);
  EXPECT_LT(w3, w5);
  EXPECT_LT(w5, w7);
}

TEST(CostModel, ConvWithoutKernelAttrFallsBackTo3x3) {
  EXPECT_EQ(node_weight(make_node(OpKind::kConv2d)),
            node_weight(make_node(OpKind::kConv2d, Attrs{}.set("kernel", 3))));
}

TEST(CostModel, ElementwiseCostsOne) {
  EXPECT_EQ(node_weight(make_node(OpKind::kRelu)), 1);
  EXPECT_EQ(node_weight(make_node(OpKind::kAdd)), 1);
  EXPECT_EQ(node_weight(make_node(OpKind::kSilu)), 1);
}

TEST(CostModel, HeavyOpsOutweighElementwise) {
  EXPECT_GT(node_weight(make_node(OpKind::kMatMul)), 10);
  EXPECT_GT(node_weight(make_node(OpKind::kGemm)),
            node_weight(make_node(OpKind::kRelu)));
}

TEST(CostModel, ConstantIsFree) {
  EXPECT_EQ(node_weight(make_node(OpKind::kConstant)), 0);
}

TEST(CostModel, DataMovementCostsOne) {
  EXPECT_EQ(node_weight(make_node(OpKind::kReshape)), 1);
  EXPECT_EQ(node_weight(make_node(OpKind::kConcat)), 1);
}

TEST(CostModel, TotalWeightSkipsDeadNodes) {
  Graph g = testing::make_diamond_graph();
  const auto before = total_weight(g);
  EXPECT_EQ(before, 4);  // four elementwise nodes
  g.kill_node(1);
  EXPECT_EQ(total_weight(g), 3);
}

}  // namespace
}  // namespace ramiel

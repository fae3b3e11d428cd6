#include <gtest/gtest.h>

#include "graph/cost_model.h"
#include "passes/analysis.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(DistancePass, ChainAccumulatesWeightsAndEdges) {
  Graph g = testing::make_chain_graph();  // three Relu nodes (weight 1)
  auto dist = distance_to_end(g);
  // c: 1; b: 1 + (1 + 1) = 3; a: 1 + (1 + 3) = 5.
  EXPECT_EQ(dist[2], 1);
  EXPECT_EQ(dist[1], 3);
  EXPECT_EQ(dist[0], 5);
}

TEST(DistancePass, DiamondTakesMaxBranch) {
  Graph g = testing::make_diamond_graph();
  auto dist = distance_to_end(g);
  // d=1; b=c=1+(1+1)=3; a=1+(1+3)=5.
  EXPECT_EQ(dist[3], 1);
  EXPECT_EQ(dist[1], 3);
  EXPECT_EQ(dist[2], 3);
  EXPECT_EQ(dist[0], 5);
}

TEST(DistancePass, HeavyBranchDominates) {
  // a -> {matmul, relu} -> add; the matmul branch sets the distance.
  Graph g("t");
  ValueId in = g.add_value("x", Shape{2, 2});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  ValueId w = g.add_initializer("w", Tensor::zeros(Shape{2, 2}));
  NodeId heavy = g.add_node(OpKind::kMatMul, "heavy",
                            {g.node(a).outputs[0], w});
  NodeId light = g.add_node(OpKind::kRelu, "light", {g.node(a).outputs[0]});
  NodeId join = g.add_node(
      OpKind::kAdd, "join", {g.node(heavy).outputs[0], g.node(light).outputs[0]});
  g.mark_output(g.node(join).outputs[0]);
  auto dist = distance_to_end(g);
  EXPECT_EQ(dist[static_cast<std::size_t>(a)],
            1 + 1 + node_weight(g.node(heavy)) + 1 + 1);  // a + edge + matmul + edge + add
}

TEST(Parallelism, SerialChainIsBelowOne) {
  Graph g = testing::make_chain_graph();
  auto rep = analyze_parallelism(g);
  EXPECT_EQ(rep.num_nodes, 3);
  EXPECT_EQ(rep.total_weight, 3);
  EXPECT_EQ(rep.critical_path, 5);
  EXPECT_LT(rep.parallelism, 1.0);
}

TEST(Parallelism, WideForkExceedsOne) {
  // One source feeding 8 parallel matmuls into a concat.
  Graph g("wide");
  ValueId in = g.add_value("x", Shape{2, 2});
  g.mark_input(in);
  NodeId src = g.add_node(OpKind::kRelu, "src", {in});
  std::vector<ValueId> branches;
  for (int i = 0; i < 8; ++i) {
    ValueId w = g.add_initializer(str_cat("w", i), Tensor::zeros(Shape{2, 2}));
    NodeId m = g.add_node(OpKind::kMatMul, str_cat("m", i),
                          {g.node(src).outputs[0], w});
    branches.push_back(g.node(m).outputs[0]);
  }
  NodeId cat = g.add_node(OpKind::kConcat, "cat", branches, 1,
                          Attrs{}.set("axis", 0));
  g.mark_output(g.node(cat).outputs[0]);
  auto rep = analyze_parallelism(g);
  EXPECT_GT(rep.parallelism, 4.0);
}

TEST(CriticalPath, FollowsMaxDistance) {
  Graph g = testing::make_diamond_graph();
  auto path = critical_path_nodes(g);
  ASSERT_EQ(path.size(), 3u);  // a -> (b or c) -> d
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 3);
}

TEST(CriticalPath, LengthMatchesReportedCp) {
  Graph g = testing::make_diamond_graph();
  auto rep = analyze_parallelism(g);
  auto path = critical_path_nodes(g);
  std::int64_t walked = 0;
  for (NodeId id : path) walked += node_weight(g.node(id));
  walked += static_cast<std::int64_t>(path.size()) - 1;  // edges
  EXPECT_EQ(walked, rep.critical_path);
}

TEST(Parallelism, DeadNodesExcluded) {
  Graph g = testing::make_diamond_graph();
  auto before = analyze_parallelism(g);
  g.kill_node(2);  // c
  auto after = analyze_parallelism(g);
  EXPECT_EQ(after.num_nodes, before.num_nodes - 1);
  EXPECT_LT(after.total_weight, before.total_weight);
}

}  // namespace
}  // namespace ramiel

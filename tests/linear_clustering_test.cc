#include <algorithm>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "passes/analysis.h"
#include "passes/linear_clustering.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// A cluster is linear: consecutive nodes are connected producer->consumer
/// *or* at least form a path in topological order (linear clustering emits
/// true paths).
void expect_paths(const Graph& g, const Clustering& c) {
  for (const Cluster& cl : c.clusters) {
    for (std::size_t i = 0; i + 1 < cl.nodes.size(); ++i) {
      auto succ = g.successors(cl.nodes[i]);
      EXPECT_NE(std::find(succ.begin(), succ.end(), cl.nodes[i + 1]),
                succ.end())
          << "cluster hop " << cl.nodes[i] << " -> " << cl.nodes[i + 1]
          << " is not an edge";
    }
  }
}

TEST(LinearClustering, ChainIsOneCluster) {
  Graph g = testing::make_chain_graph();
  Clustering c = linear_clustering(g);
  EXPECT_EQ(c.size(), 1);
  testing::expect_partition(g, c);
  expect_paths(g, c);
}

TEST(LinearClustering, DiamondPeelsTwoPaths) {
  Graph g = testing::make_diamond_graph();
  Clustering c = linear_clustering(g);
  // Critical path a->{b or c}->d first, the remaining branch second.
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.clusters[0].nodes.size(), 3u);
  EXPECT_EQ(c.clusters[1].nodes.size(), 1u);
  testing::expect_partition(g, c);
  expect_paths(g, c);
}

TEST(LinearClustering, FirstClusterIsCriticalPath) {
  Graph g = testing::make_diamond_graph();
  Clustering c = linear_clustering(g);
  auto cp = critical_path_nodes(g);
  EXPECT_EQ(c.clusters[0].nodes, cp);
}

TEST(LinearClustering, HeavySideBranchWins) {
  // a -> {heavy matmul chain, light relu} -> join: the heavy branch must be
  // on the first (critical) cluster.
  Graph g("t");
  ValueId in = g.add_value("x", Shape{2, 2});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  ValueId w = g.add_initializer("w", Tensor::zeros(Shape{2, 2}));
  NodeId heavy = g.add_node(OpKind::kMatMul, "heavy",
                            {g.node(a).outputs[0], w});
  NodeId light = g.add_node(OpKind::kRelu, "light", {g.node(a).outputs[0]});
  NodeId join = g.add_node(OpKind::kAdd, "join",
                           {g.node(heavy).outputs[0], g.node(light).outputs[0]});
  g.mark_output(g.node(join).outputs[0]);
  Clustering c = linear_clustering(g);
  const auto& first = c.clusters[0].nodes;
  EXPECT_NE(std::find(first.begin(), first.end(), heavy), first.end());
  EXPECT_EQ(std::find(first.begin(), first.end(), light), first.end());
  (void)join;
}

TEST(LinearClustering, SqueezenetProducesNinePaths) {
  // Table II "Before Merging" for Squeezenet is 9; our reconstruction
  // matches it exactly.
  Graph g = models::build("squeezenet");
  Clustering c = linear_clustering(g);
  EXPECT_EQ(c.size(), 9);
  testing::expect_partition(g, c);
  expect_paths(g, c);
}

class LcOnAllModels : public ::testing::TestWithParam<std::string> {};

TEST_P(LcOnAllModels, ProducesValidLinearPartition) {
  Graph g = models::build(GetParam());
  Clustering c = linear_clustering(g);
  testing::expect_partition(g, c);
  expect_paths(g, c);
  EXPECT_NO_THROW(finalize_clustering(g, c));
}

INSTANTIATE_TEST_SUITE_P(Zoo, LcOnAllModels,
                         ::testing::ValuesIn(models::model_names()));

TEST(LinearClustering, SkipsDeadNodes) {
  Graph g = testing::make_diamond_graph();
  g.kill_node(2);
  // Patch d to not read the dead value: replace with b's output.
  Graph h("h");
  ValueId in = h.add_value("x", Shape{1, 4});
  h.mark_input(in);
  NodeId a = h.add_node(OpKind::kRelu, "a", {in});
  NodeId b = h.add_node(OpKind::kSigmoid, "b", {h.node(a).outputs[0]});
  NodeId dead = h.add_node(OpKind::kTanh, "dead", {h.node(a).outputs[0]});
  h.mark_output(h.node(b).outputs[0]);
  h.kill_node(dead);
  Clustering c = linear_clustering(h);
  EXPECT_EQ(c.size(), 1);
  EXPECT_EQ(c.clusters[0].nodes.size(), 2u);
}

TEST(FinalizeClustering, RejectsDuplicates) {
  Graph g = testing::make_chain_graph();
  Clustering c;
  c.clusters.push_back(Cluster{{0, 1, 2}});
  c.clusters.push_back(Cluster{{1}});
  EXPECT_THROW(finalize_clustering(g, c), ValidationError);
}

TEST(FinalizeClustering, RejectsMissingNodes) {
  Graph g = testing::make_chain_graph();
  Clustering c;
  c.clusters.push_back(Cluster{{0, 1}});
  EXPECT_THROW(finalize_clustering(g, c), ValidationError);
}

TEST(CrossClusterEdges, CountsBoundaryCrossings) {
  Graph g = testing::make_diamond_graph();
  Clustering c = linear_clustering(g);
  // a->side branch and side branch->d cross the two clusters.
  EXPECT_EQ(cross_cluster_edges(g, c), 2);
}

}  // namespace
}  // namespace ramiel

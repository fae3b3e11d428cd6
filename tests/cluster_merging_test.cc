
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "passes/cluster_merging.h"
#include "passes/linear_clustering.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// Two sequential fork-joins: a -> {b,c} -> d -> {e,f} -> g. The two side
/// branches (c and f) have disjoint spans and should merge.
Graph make_two_diamonds() {
  Graph g("two_diamonds");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  auto relu = [&](const std::string& name, ValueId src) {
    return g.node(g.add_node(OpKind::kRelu, name, {src})).outputs[0];
  };
  ValueId a = relu("a", in);
  ValueId b = relu("b", a);
  ValueId c = relu("c", a);
  NodeId dj = g.add_node(OpKind::kAdd, "d", {b, c});
  ValueId d = g.node(dj).outputs[0];
  ValueId e = relu("e", d);
  ValueId f = relu("f", d);
  NodeId gj = g.add_node(OpKind::kAdd, "g", {e, f});
  g.mark_output(g.node(gj).outputs[0]);
  return g;
}

TEST(ClusterMerging, MergesDisjointSpans) {
  Graph g = make_two_diamonds();
  Clustering lc = linear_clustering(g);
  EXPECT_EQ(lc.size(), 3);  // CP + two singleton side branches
  Clustering merged = merge_clusters(g, lc);
  EXPECT_EQ(merged.size(), 2);  // side branches combined
  testing::expect_partition(g, merged);
}

TEST(ClusterMerging, DoesNotMergeOverlappingSpans) {
  Graph g = testing::make_diamond_graph();
  Clustering lc = linear_clustering(g);
  Clustering merged = merge_clusters(g, lc);
  // The side branch overlaps the critical path in time; no merge possible.
  EXPECT_EQ(merged.size(), 2);
}

TEST(ClusterMerging, SingleClusterIsFixpoint) {
  Graph g = testing::make_chain_graph();
  Clustering lc = linear_clustering(g);
  Clustering merged = merge_clusters(g, lc);
  EXPECT_EQ(merged.size(), 1);
}

TEST(ClusterMerging, OneSweepSetsFlag) {
  Graph g = make_two_diamonds();
  Clustering lc = linear_clustering(g);
  bool merge_done = false;
  Clustering once = merge_clusters_once(g, lc, &merge_done);
  EXPECT_TRUE(merge_done);
  // And a sweep over an unmergeable clustering reports false.
  Graph d = testing::make_diamond_graph();
  Clustering dlc = linear_clustering(d);
  Clustering dm = merge_clusters_once(d, dlc, &merge_done);
  EXPECT_FALSE(merge_done);
  EXPECT_EQ(dm.size(), dlc.size());
}

TEST(ClusterMerging, ResultIsTopologicallySorted) {
  Graph g = make_two_diamonds();
  Clustering merged =
      merge_clusters(g, linear_clustering(g));
  const auto order = g.topo_order();
  std::vector<int> pos(g.nodes().size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (const Cluster& cl : merged.clusters) {
    for (std::size_t i = 0; i + 1 < cl.nodes.size(); ++i) {
      EXPECT_LT(pos[static_cast<std::size_t>(cl.nodes[i])],
                pos[static_cast<std::size_t>(cl.nodes[i + 1])]);
    }
  }
}

TEST(ClusterMerging, PaperTable2Squeezenet) {
  // Table II: Squeezenet 9 -> 2.
  Graph g = models::build("squeezenet");
  Clustering lc = linear_clustering(g);
  Clustering merged = merge_clusters(g, lc);
  EXPECT_EQ(lc.size(), 9);
  EXPECT_EQ(merged.size(), 2);
  testing::expect_partition(g, merged);
}

class MergeOnAllModels : public ::testing::TestWithParam<std::string> {};

TEST_P(MergeOnAllModels, ReducesClusterCountAndStaysValid) {
  Graph g = models::build(GetParam());
  Clustering lc = linear_clustering(g);
  Clustering merged = merge_clusters(g, lc);
  EXPECT_LE(merged.size(), lc.size());
  EXPECT_GE(merged.size(), 1);
  testing::expect_partition(g, merged);
}

INSTANTIATE_TEST_SUITE_P(Zoo, MergeOnAllModels,
                         ::testing::ValuesIn(models::model_names()));

}  // namespace
}  // namespace ramiel

#include <set>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "passes/hypercluster.h"
#include "passes/linear_clustering.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(Hypercluster, Batch1IsClusterIdentity) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  ASSERT_EQ(hc.workers.size(), static_cast<std::size_t>(c.size()));
  for (int w = 0; w < c.size(); ++w) {
    ASSERT_EQ(hc.workers[static_cast<std::size_t>(w)].size(),
              c.clusters[static_cast<std::size_t>(w)].nodes.size());
    for (std::size_t i = 0; i < c.clusters[static_cast<std::size_t>(w)].nodes.size();
         ++i) {
      EXPECT_EQ(hc.workers[static_cast<std::size_t>(w)][i].node,
                c.clusters[static_cast<std::size_t>(w)].nodes[i]);
      EXPECT_EQ(hc.workers[static_cast<std::size_t>(w)][i].sample, 0);
    }
  }
}

TEST(Hypercluster, CoversEveryNodeSamplePair) {
  Graph g = testing::make_diamond_graph();
  const int batch = 3;
  Hyperclustering hc = testing::hypercluster(g, batch);
  std::set<std::pair<NodeId, int>> seen;
  for (const auto& w : hc.workers) {
    for (const HyperTask& t : w) {
      EXPECT_TRUE(seen.insert({t.node, t.sample}).second);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.live_node_count() * batch);
}

TEST(Hypercluster, PlainInterleavesSamplesOpWise) {
  Graph g = testing::make_chain_graph();  // one cluster of 3 nodes
  Hyperclustering hc = testing::hypercluster(g, 2);
  const auto& tasks = hc.workers[0];
  ASSERT_EQ(tasks.size(), 6u);
  // Round-robin: (n0,s0), (n0,s1), (n1,s0), (n1,s1), ...
  EXPECT_EQ(tasks[0].sample, 0);
  EXPECT_EQ(tasks[1].sample, 1);
  EXPECT_EQ(tasks[0].node, tasks[1].node);
  EXPECT_EQ(tasks[2].sample, 0);
  EXPECT_NE(tasks[0].node, tasks[2].node);
}

TEST(Hypercluster, PlainKeepsClusterPerWorker) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 2);
  for (int w = 0; w < c.size(); ++w) {
    std::set<NodeId> cluster_nodes(
        c.clusters[static_cast<std::size_t>(w)].nodes.begin(),
        c.clusters[static_cast<std::size_t>(w)].nodes.end());
    for (const HyperTask& t : hc.workers[static_cast<std::size_t>(w)]) {
      EXPECT_TRUE(cluster_nodes.count(t.node));
    }
  }
}

TEST(SwitchedHypercluster, RotatesClustersAcrossSamples) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  ASSERT_EQ(c.size(), 2);
  Hyperclustering hc = build_switched_hyperclusters(g, c, 2);
  // Worker 0 runs cluster 0 for sample 0 and cluster 1 for sample 1.
  for (const HyperTask& t : hc.workers[0]) {
    const int expected_cluster = t.sample == 0 ? 0 : 1;
    std::set<NodeId> nodes(
        c.clusters[static_cast<std::size_t>(expected_cluster)].nodes.begin(),
        c.clusters[static_cast<std::size_t>(expected_cluster)].nodes.end());
    EXPECT_TRUE(nodes.count(t.node));
  }
}

TEST(SwitchedHypercluster, BalancesLoadOnSkewedClusters) {
  // Paper Fig. 9: switching turns a 5/2-ish split into a balanced one when
  // batch == number of clusters.
  Graph g = testing::make_diamond_graph();  // clusters of size 3 and 1
  Clustering c = testing::cluster(g);
  Hyperclustering plain = build_hyperclusters(g, c, 2);
  Hyperclustering switched = build_switched_hyperclusters(g, c, 2);
  auto [pmax, pmin] = worker_load_bounds(plain);
  auto [smax, smin] = worker_load_bounds(switched);
  EXPECT_EQ(pmax, 6);  // 3 nodes x 2 samples
  EXPECT_EQ(pmin, 2);
  EXPECT_EQ(smax, 4);  // 3 + 1 on every worker
  EXPECT_EQ(smin, 4);
  EXPECT_LT(smax - smin, pmax - pmin);
}

TEST(SwitchedHypercluster, CoversEveryNodeSamplePair) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  const int batch = 4;
  Hyperclustering hc = build_switched_hyperclusters(g, c, batch);
  std::set<std::pair<NodeId, int>> seen;
  for (const auto& w : hc.workers) {
    for (const HyperTask& t : w) {
      EXPECT_TRUE(seen.insert({t.node, t.sample}).second);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.live_node_count() * batch);
}

TEST(Hypercluster, WorkerLookupConsistent) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_switched_hyperclusters(g, c, 3);
  for (std::size_t w = 0; w < hc.workers.size(); ++w) {
    for (const HyperTask& t : hc.workers[w]) {
      EXPECT_EQ(hc.worker(t.node, t.sample), static_cast<int>(w));
    }
  }
}

TEST(Hypercluster, SampleStreamsPreserveClusterOrder) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 3);
  for (std::size_t w = 0; w < hc.workers.size(); ++w) {
    for (int s = 0; s < 3; ++s) {
      std::vector<NodeId> stream;
      for (const HyperTask& t : hc.workers[w]) {
        if (t.sample == s) stream.push_back(t.node);
      }
      EXPECT_EQ(stream, c.clusters[w].nodes);
    }
  }
}

}  // namespace
}  // namespace ramiel

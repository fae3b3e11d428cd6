// Clustering data model shared by all passes and the runtime.
//
// A clustering maps every live node of a graph onto exactly one cluster;
// clusters are the unit of parallel execution (one worker thread each, the
// analogue of the paper's per-cluster Python process). Cluster node lists
// are kept sorted by one global topological order, which (with buffered
// sends and blocking receives) guarantees the parallel schedule is
// deadlock-free.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ramiel {

/// One cluster: an ordered list of node ids (execution order).
struct Cluster {
  std::vector<NodeId> nodes;
};

/// A complete clustering of a graph.
struct Clustering {
  std::vector<Cluster> clusters;

  /// cluster_of[node id] = cluster index, or -1 for dead nodes.
  std::vector<int> cluster_of;

  int size() const { return static_cast<int>(clusters.size()); }
};

/// Builds cluster_of from the cluster lists and verifies the partition
/// covers every live node exactly once. Throws ValidationError otherwise.
void finalize_clustering(const Graph& graph, Clustering& clustering);

/// Re-sorts every cluster's node list into the graph's topological order.
void sort_clusters_topologically(const Graph& graph, Clustering& clustering);

/// Number of tensor edges that cross cluster boundaries (the messages the
/// generated code passes through queues).
int cross_cluster_edges(const Graph& graph, const Clustering& clustering);

}  // namespace ramiel

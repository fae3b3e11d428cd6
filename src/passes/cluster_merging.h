// Cluster-merging pass (paper Algorithms 2 & 3).
//
// Linear clustering over ML graphs leaves many short disconnected paths
// (zeroing the critical path disconnects the remainder). This pass combines
// clusters whose [start, end] spans — measured in distance_to_end units —
// do not overlap, i.e. one cluster finishes before the other begins, so
// placing both on the same core costs no parallelism. Algorithm 2 does one
// merge sweep; Algorithm 3 iterates it to a fixed point.
#pragma once

#include "passes/clustering.h"

namespace ramiel {

/// One sweep of Algorithm 2. Returns the merged clustering and sets
/// *merge_done when at least one pair was combined.
Clustering merge_clusters_once(const Graph& graph, const Clustering& clusters,
                               bool* merge_done);

/// Algorithm 3: iterate merge_clusters_once until no merge happens.
/// The result is finalized (cluster_of rebuilt, node lists topo-sorted).
Clustering merge_clusters(const Graph& graph, const Clustering& clusters);

}  // namespace ramiel

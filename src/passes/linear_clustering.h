// Recursive critical-path-based Linear Clustering (paper Algorithm 1, after
// Kim & Browne 1988).
//
// Repeatedly: pick the ready node with the largest distance_to_end, follow
// the max-distance successor chain while removing competing edges, and emit
// the walked path as one linear cluster. Iterate until every node is
// clustered. The resulting clusters are linear paths; several of them are
// later combined by the cluster-merging pass (Algorithms 2 & 3).
#pragma once

#include "passes/clustering.h"

namespace ramiel {

/// Runs Algorithm 1 on the live nodes of `graph`. Clusters come out in the
/// order their paths were peeled (first cluster = first critical path).
Clustering linear_clustering(const Graph& graph);

}  // namespace ramiel

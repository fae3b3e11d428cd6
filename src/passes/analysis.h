// Distance pass and potential-parallelism analysis (paper §III-A, Table I).
//
// distance_to_end(n) is the weighted length of the longest path from n to
// any sink, counting node weights plus one unit per edge. The critical path
// length is the maximum distance over all nodes; the potential parallelism
// factor is total node weight divided by critical path length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace ramiel {

/// distance_to_end for every node (indexed by node id; dead nodes get 0).
std::vector<std::int64_t> distance_to_end(const Graph& graph);

/// The paper's Table I row for one graph.
struct ParallelismReport {
  std::string model;
  int num_nodes = 0;
  std::int64_t total_weight = 0;    // "Wt. NodeCost"
  std::int64_t critical_path = 0;   // "Wt. CP"
  double parallelism = 0.0;         // total_weight / critical_path
};

/// Computes the Table I metrics.
ParallelismReport analyze_parallelism(const Graph& graph);

/// Node ids on one critical path (greedy max-distance walk from the most
/// distant source), in execution order.
std::vector<NodeId> critical_path_nodes(const Graph& graph);

}  // namespace ramiel

#include "passes/analysis.h"

#include <algorithm>

#include "graph/cost_model.h"
#include "support/check.h"

namespace ramiel {

std::vector<std::int64_t> distance_to_end(const Graph& graph) {
  std::vector<std::int64_t> dist(graph.nodes().size(), 0);
  const std::vector<NodeId> order = graph.topo_order();
  // Walk in reverse topological order so successors are finalized first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    std::int64_t best = 0;
    for (NodeId s : graph.successors(id)) {
      best = std::max(best, kEdgeWeight + dist[static_cast<std::size_t>(s)]);
    }
    dist[static_cast<std::size_t>(id)] = node_weight(graph.node(id)) + best;
  }
  return dist;
}

ParallelismReport analyze_parallelism(const Graph& graph) {
  ParallelismReport r;
  r.model = graph.name();
  r.num_nodes = graph.live_node_count();
  r.total_weight = total_weight(graph);
  const std::vector<std::int64_t> dist = distance_to_end(graph);
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    r.critical_path =
        std::max(r.critical_path, dist[static_cast<std::size_t>(n.id)]);
  }
  r.parallelism = r.critical_path > 0
                      ? static_cast<double>(r.total_weight) /
                            static_cast<double>(r.critical_path)
                      : 0.0;
  return r;
}

std::vector<NodeId> critical_path_nodes(const Graph& graph) {
  const std::vector<std::int64_t> dist = distance_to_end(graph);
  // Start at the source (a node with no live predecessors) with the largest
  // distance, then repeatedly follow the max-distance successor.
  NodeId cur = kNoNode;
  std::int64_t best = -1;
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    if (!graph.predecessors(n.id).empty()) continue;
    if (dist[static_cast<std::size_t>(n.id)] > best) {
      best = dist[static_cast<std::size_t>(n.id)];
      cur = n.id;
    }
  }
  std::vector<NodeId> path;
  while (cur != kNoNode) {
    path.push_back(cur);
    NodeId next = kNoNode;
    std::int64_t next_best = -1;
    for (NodeId s : graph.successors(cur)) {
      if (dist[static_cast<std::size_t>(s)] > next_best) {
        next_best = dist[static_cast<std::size_t>(s)];
        next = s;
      }
    }
    cur = next;
  }
  return path;
}

}  // namespace ramiel

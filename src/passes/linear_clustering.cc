#include "passes/linear_clustering.h"

#include <algorithm>
#include <set>

#include "passes/analysis.h"
#include "support/check.h"

namespace ramiel {

Clustering linear_clustering(const Graph& graph) {
  const std::vector<std::int64_t> dist = distance_to_end(graph);
  const std::size_t n = graph.nodes().size();

  // Mutable adjacency (the algorithm consumes edges as it walks paths).
  std::vector<std::set<NodeId>> out_edges(n);
  std::vector<std::set<NodeId>> in_edges(n);
  std::vector<bool> remaining(n, false);
  int remaining_count = 0;
  for (const Node& node : graph.nodes()) {
    if (node.dead) continue;
    remaining[static_cast<std::size_t>(node.id)] = true;
    ++remaining_count;
    for (NodeId s : graph.successors(node.id)) {
      out_edges[static_cast<std::size_t>(node.id)].insert(s);
      in_edges[static_cast<std::size_t>(s)].insert(node.id);
    }
  }

  auto drop_edge = [&](NodeId from, NodeId to) {
    out_edges[static_cast<std::size_t>(from)].erase(to);
    in_edges[static_cast<std::size_t>(to)].erase(from);
  };

  Clustering result;
  while (remaining_count > 0) {
    // readyL: remaining nodes with no remaining incoming edges; pick the one
    // farthest from the end.
    NodeId start = kNoNode;
    std::int64_t best = -1;
    for (const Node& node : graph.nodes()) {
      if (node.dead || !remaining[static_cast<std::size_t>(node.id)]) continue;
      if (!in_edges[static_cast<std::size_t>(node.id)].empty()) continue;
      if (dist[static_cast<std::size_t>(node.id)] > best) {
        best = dist[static_cast<std::size_t>(node.id)];
        start = node.id;
      }
    }
    RAMIEL_CHECK(start != kNoNode,
                 "no ready node although nodes remain (cycle?)");

    Cluster cluster;
    NodeId cur = start;
    cluster.nodes.push_back(cur);
    remaining[static_cast<std::size_t>(cur)] = false;
    --remaining_count;

    while (!out_edges[static_cast<std::size_t>(cur)].empty()) {
      // Follow the successor with the largest distance_to_end.
      NodeId next = kNoNode;
      std::int64_t next_best = -1;
      for (NodeId s : out_edges[static_cast<std::size_t>(cur)]) {
        if (dist[static_cast<std::size_t>(s)] > next_best) {
          next_best = dist[static_cast<std::size_t>(s)];
          next = s;
        }
      }
      // Remove cur's competing out-edges, then all of next's in-edges.
      const std::set<NodeId> outs = out_edges[static_cast<std::size_t>(cur)];
      for (NodeId s : outs) {
        if (s != next) drop_edge(cur, s);
      }
      const std::set<NodeId> ins = in_edges[static_cast<std::size_t>(next)];
      for (NodeId p : ins) drop_edge(p, next);

      cluster.nodes.push_back(next);
      RAMIEL_CHECK(remaining[static_cast<std::size_t>(next)],
                   "path revisited a clustered node");
      remaining[static_cast<std::size_t>(next)] = false;
      --remaining_count;
      cur = next;
    }
    result.clusters.push_back(std::move(cluster));
  }

  finalize_clustering(graph, result);
  return result;
}

}  // namespace ramiel

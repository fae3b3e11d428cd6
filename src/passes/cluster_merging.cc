#include "passes/cluster_merging.h"

#include <algorithm>

#include "passes/analysis.h"
#include "support/check.h"

namespace ramiel {
namespace {

struct Span {
  std::int64_t start;  // distance_to_end of entry node (larger = earlier)
  std::int64_t end;    // distance_to_end of exit node  (smaller = later)
};

/// Entry = max distance node, exit = min distance node of the cluster.
Span cluster_span(const Cluster& c, const std::vector<std::int64_t>& dist) {
  Span s{0, 0};
  bool first = true;
  for (NodeId id : c.nodes) {
    const std::int64_t d = dist[static_cast<std::size_t>(id)];
    if (first) {
      s.start = s.end = d;
      first = false;
    } else {
      s.start = std::max(s.start, d);
      s.end = std::min(s.end, d);
    }
  }
  return s;
}

}  // namespace

Clustering merge_clusters_once(const Graph& graph, const Clustering& clusters,
                               bool* merge_done) {
  const std::vector<std::int64_t> dist = distance_to_end(graph);
  const int k = clusters.size();
  std::vector<Span> spans;
  spans.reserve(static_cast<std::size_t>(k));
  for (const Cluster& c : clusters.clusters) {
    spans.push_back(cluster_span(c, dist));
  }

  Clustering merged;
  std::vector<bool> skip(static_cast<std::size_t>(k), false);
  *merge_done = false;

  for (int i = 0; i < k; ++i) {
    if (skip[static_cast<std::size_t>(i)]) continue;
    bool was_merged = false;
    for (int j = i + 1; j < k; ++j) {
      if (skip[static_cast<std::size_t>(j)]) continue;
      // Non-overlap: one cluster's whole span lies after the other ends.
      // distance_to_end decreases with time, so "i starts after j ends"
      // reads spans[i].start < spans[j].end.
      const bool disjoint = spans[static_cast<std::size_t>(i)].start <
                                spans[static_cast<std::size_t>(j)].end ||
                            spans[static_cast<std::size_t>(j)].start <
                                spans[static_cast<std::size_t>(i)].end;
      if (!disjoint) continue;
      Cluster mc;
      mc.nodes = clusters.clusters[static_cast<std::size_t>(i)].nodes;
      mc.nodes.insert(mc.nodes.end(),
                      clusters.clusters[static_cast<std::size_t>(j)].nodes.begin(),
                      clusters.clusters[static_cast<std::size_t>(j)].nodes.end());
      merged.clusters.push_back(std::move(mc));
      skip[static_cast<std::size_t>(i)] = skip[static_cast<std::size_t>(j)] = true;
      *merge_done = true;
      was_merged = true;
      break;
    }
    if (!was_merged) {
      merged.clusters.push_back(clusters.clusters[static_cast<std::size_t>(i)]);
    }
  }
  return merged;
}

Clustering merge_clusters(const Graph& graph, const Clustering& clusters) {
  Clustering current = clusters;
  bool merge_done = true;
  while (merge_done) {
    current = merge_clusters_once(graph, current, &merge_done);
  }
  sort_clusters_topologically(graph, current);
  finalize_clustering(graph, current);
  return current;
}

}  // namespace ramiel

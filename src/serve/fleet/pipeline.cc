#include "serve/fleet/pipeline.h"

#include <algorithm>

#include "graph/cost_model.h"
#include "support/check.h"

namespace ramiel::serve::fleet {

double StageCut::modeled_speedup() const {
  std::int64_t total = 0, bottleneck = 0;
  for (std::int64_t c : stage_cost) {
    total += c;
    bottleneck = std::max(bottleneck, c);
  }
  return bottleneck <= 0 ? 1.0
                         : static_cast<double>(total) /
                               static_cast<double>(bottleneck);
}

namespace {

/// One cut unit: a maximal run of consecutive same-cluster nodes in the
/// graph's topological order. Cutting only between runs keeps every stage
/// boundary a cluster boundary while staying topological even when the
/// cluster quotient graph is cyclic (interleaved linear clusters are
/// common — squeezenet's two clusters alternate eight times).
struct ClusterRun {
  std::vector<NodeId> nodes;
  std::int64_t cost = 0;
};

std::vector<ClusterRun> cluster_runs(const Graph& graph,
                                     const Clustering& clustering) {
  std::vector<ClusterRun> runs;
  int prev_cluster = -1;
  bool have_run = false;
  for (NodeId id : graph.topo_order()) {
    const Node& n = graph.node(id);
    const int c = clustering.cluster_of[static_cast<std::size_t>(id)];
    // Unclustered nodes (constants the planner left out) ride along with
    // the current run: they cost nothing and must not split a run.
    if (!have_run || (c >= 0 && c != prev_cluster)) {
      runs.emplace_back();
      have_run = true;
      prev_cluster = c >= 0 ? c : prev_cluster;
    }
    runs.back().nodes.push_back(id);
    runs.back().cost += node_weight(n);
  }
  return runs;
}

}  // namespace

StageCut build_stage_cut(const Graph& graph, const Clustering& clustering,
                         int stages) {
  RAMIEL_CHECK(stages >= 1, "need at least one stage");
  const std::vector<ClusterRun> runs = cluster_runs(graph, clustering);
  const int k = static_cast<int>(runs.size());
  const int s_count = std::min(stages, std::max(1, k));
  std::int64_t total = 0;
  for (const ClusterRun& r : runs) total += r.cost;

  StageCut cut;
  cut.stage_nodes.resize(static_cast<std::size_t>(s_count));
  cut.stage_cost.assign(static_cast<std::size_t>(s_count), 0);
  // Greedy balanced contiguous cut: stage s closes once the running prefix
  // reaches the ideal fraction (s+1)/S of total cost — while always leaving
  // at least one run for each remaining stage.
  int i = 0;
  std::int64_t prefix = 0;
  for (int s = 0; s < s_count; ++s) {
    const std::int64_t target =
        total * static_cast<std::int64_t>(s + 1) / s_count;
    const int must_leave = s_count - s - 1;
    do {
      auto& nodes = cut.stage_nodes[static_cast<std::size_t>(s)];
      nodes.insert(nodes.end(), runs[static_cast<std::size_t>(i)].nodes.begin(),
                   runs[static_cast<std::size_t>(i)].nodes.end());
      cut.stage_cost[static_cast<std::size_t>(s)] +=
          runs[static_cast<std::size_t>(i)].cost;
      prefix += runs[static_cast<std::size_t>(i)].cost;
      ++i;
    } while (i < k - must_leave && (s + 1 == s_count || prefix < target));
  }
  RAMIEL_CHECK(i == k, "stage cut must cover every run");
  return cut;
}

Hyperclustering stage_hyperclusters(const Graph& graph, const StageCut& cut,
                                    int batch) {
  RAMIEL_CHECK(batch >= 1, "batch must be >= 1");
  const int s_count = cut.num_stages();
  Hyperclustering hc;
  hc.batch = batch;
  hc.num_nodes = static_cast<int>(graph.nodes().size());
  hc.worker_of.assign(static_cast<std::size_t>(batch) *
                          static_cast<std::size_t>(hc.num_nodes),
                      -1);
  hc.workers.resize(static_cast<std::size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    auto& tasks = hc.workers[static_cast<std::size_t>(s)];
    for (int sample = 0; sample < batch; ++sample) {
      for (NodeId id : cut.stage_nodes[static_cast<std::size_t>(s)]) {
        tasks.push_back(HyperTask{id, sample});
        hc.worker_of[static_cast<std::size_t>(sample) *
                         static_cast<std::size_t>(hc.num_nodes) +
                     static_cast<std::size_t>(id)] = s;
      }
    }
  }
  return hc;
}

}  // namespace ramiel::serve::fleet

#include "sched/list_scheduler.h"

#include <algorithm>
#include <queue>

#include "passes/analysis.h"
#include "support/check.h"

namespace ramiel {

ListScheduleResult list_schedule(const Graph& graph,
                                 const CostProfile& profile,
                                 const MachineModel& machine, int workers) {
  RAMIEL_CHECK(workers >= 1, "need at least one worker");
  const std::vector<std::int64_t> priority = distance_to_end(graph);

  ListScheduleResult result;
  result.clustering.clusters.resize(static_cast<std::size_t>(workers));

  std::vector<double> worker_free(static_cast<std::size_t>(workers), 0.0);
  std::vector<double> node_end(graph.nodes().size(), 0.0);
  std::vector<int> node_worker(graph.nodes().size(), -1);
  std::vector<int> indegree(graph.nodes().size(), 0);

  // Max-priority ready queue.
  auto cmp = [&](NodeId a, NodeId b) {
    return priority[static_cast<std::size_t>(a)] <
           priority[static_cast<std::size_t>(b)];
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(cmp)> ready(cmp);

  int live = 0;
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    ++live;
    indegree[static_cast<std::size_t>(n.id)] =
        static_cast<int>(graph.predecessors(n.id).size());
    if (indegree[static_cast<std::size_t>(n.id)] == 0) ready.push(n.id);
  }

  int scheduled = 0;
  while (!ready.empty()) {
    const NodeId id = ready.top();
    ready.pop();
    const Node& n = graph.node(id);

    // Earliest finish time across workers, accounting for cross-worker
    // message latency on remote dependences.
    double best_end = -1.0;
    int best_worker = 0;
    for (int w = 0; w < workers; ++w) {
      double start = worker_free[static_cast<std::size_t>(w)];
      for (NodeId p : graph.predecessors(id)) {
        double avail = node_end[static_cast<std::size_t>(p)];
        if (node_worker[static_cast<std::size_t>(p)] != w) {
          // One message per dependence; use the producer's first output size.
          const Node& pn = graph.node(p);
          const double bytes =
              pn.outputs.empty()
                  ? 0.0
                  : profile.value_bytes[static_cast<std::size_t>(pn.outputs[0])];
          avail += machine.comm_us(bytes);
        }
        start = std::max(start, avail);
      }
      const double dur =
          n.kind == OpKind::kConstant
              ? 0.0
              : machine.per_task_overhead_us +
                    profile.node_us[static_cast<std::size_t>(id)];
      const double end = start + dur;
      if (best_end < 0.0 || end < best_end) {
        best_end = end;
        best_worker = w;
      }
    }
    node_end[static_cast<std::size_t>(id)] = best_end;
    node_worker[static_cast<std::size_t>(id)] = best_worker;
    worker_free[static_cast<std::size_t>(best_worker)] = best_end;
    result.clustering.clusters[static_cast<std::size_t>(best_worker)]
        .nodes.push_back(id);
    result.makespan_ms = std::max(result.makespan_ms, best_end / 1e3);
    ++scheduled;

    for (NodeId s : graph.successors(id)) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  RAMIEL_CHECK(scheduled == live, "list scheduler missed nodes (cycle?)");

  // Drop empty workers, then finalize.
  auto& cl = result.clustering.clusters;
  cl.erase(std::remove_if(cl.begin(), cl.end(),
                          [](const Cluster& c) { return c.nodes.empty(); }),
           cl.end());
  sort_clusters_topologically(graph, result.clustering);
  finalize_clustering(graph, result.clustering);
  return result;
}

}  // namespace ramiel

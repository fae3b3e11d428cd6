#include "passes/cloning.h"

#include <algorithm>

#include "graph/cost_model.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

/// Depth of every node from the graph top (unweighted longest path).
std::vector<int> node_depths(const Graph& g) {
  std::vector<int> depth(g.nodes().size(), 0);
  for (NodeId id : g.topo_order()) {
    int best = 0;
    for (NodeId p : g.predecessors(id)) {
      best = std::max(best, depth[static_cast<std::size_t>(p)] + 1);
    }
    depth[static_cast<std::size_t>(id)] = best;
  }
  return depth;
}

}  // namespace

CloningStats clone_tasks(Graph& graph, const CloningOptions& options) {
  CloningStats stats;
  const std::vector<int> depth = node_depths(graph);
  int max_depth = 0;
  for (const Node& n : graph.nodes()) {
    if (!n.dead) {
      max_depth = std::max(max_depth, depth[static_cast<std::size_t>(n.id)]);
    }
  }
  const int depth_cutoff =
      static_cast<int>(options.depth_fraction * max_depth);

  // Snapshot candidate ids first: cloning appends nodes and must not revisit
  // fresh clones.
  std::vector<NodeId> candidates;
  for (const Node& n : graph.nodes()) {
    if (n.dead || n.kind == OpKind::kConstant) continue;
    if (n.outputs.size() != 1) continue;
    if (node_weight(n) > options.max_weight) continue;
    if (depth[static_cast<std::size_t>(n.id)] > depth_cutoff) continue;
    candidates.push_back(n.id);
  }

  for (NodeId id : candidates) {
    if (stats.clones_created >= options.max_clones) break;
    // Copy the fields we need: add_node below may reallocate the node array.
    const Node n = graph.node(id);
    const ValueId out = n.outputs[0];
    // Output must not be a graph output (the original must keep producing it).
    if (std::find(graph.outputs().begin(), graph.outputs().end(), out) !=
        graph.outputs().end()) {
      continue;
    }
    std::vector<NodeId> consumers = graph.value(out).consumers;
    const int fanout = static_cast<int>(consumers.size());
    if (fanout < 2 || fanout > options.max_fanout) continue;

    // Keep the original for consumers[0]; consumers[1..] each get a clone.
    bool cloned_any = false;
    for (std::size_t ci = 1; ci < consumers.size(); ++ci) {
      if (stats.clones_created >= options.max_clones) break;
      const NodeId consumer = consumers[ci];
      // A node that reads `out` twice is listed twice: its first entry
      // rewires every read (and the node behind consumers[0] keeps the
      // original).
      const std::vector<ValueId>& reads = graph.node(consumer).inputs;
      if (consumer == consumers[0] ||
          std::find(reads.begin(), reads.end(), out) == reads.end()) {
        continue;
      }
      NodeId clone = graph.add_node(
          n.kind, str_cat(n.name, "_clone", stats.clones_created), n.inputs,
          1, n.attrs);
      const ValueId clone_out = graph.node(clone).outputs[0];
      graph.value(clone_out).shape = graph.value(out).shape;
      // Rewire this consumer's matching inputs to the clone's output.
      Node& cn = graph.node(consumer);
      for (ValueId& in : cn.inputs) {
        if (in != out) continue;
        in = clone_out;
        graph.value(clone_out).consumers.push_back(consumer);
      }
      auto& cons = graph.value(out).consumers;
      cons.erase(std::remove(cons.begin(), cons.end(), consumer), cons.end());
      ++stats.clones_created;
      cloned_any = true;
    }
    if (cloned_any) ++stats.nodes_cloned;
  }
  graph.validate();
  return stats;
}

}  // namespace ramiel

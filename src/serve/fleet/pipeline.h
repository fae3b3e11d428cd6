// Cross-batch pipelining of one clustered program: the stage cut.
//
// The clustered program is cut at cluster boundaries into S stages: the
// graph's topological node order is first grouped into maximal same-cluster
// runs (a cluster's quotient graph may be cyclic — two linear clusters can
// interleave — so whole clusters are not safe cut units, but runs of one
// cluster are, and every run boundary is still a cluster boundary). A
// greedy cost-balanced contiguous cut over those runs assigns them to
// stages — the same formulation RaNNC and popart's pipelining transform
// use for stage assignment.
//
// The cut runs as an ordinary program: stage_hyperclusters() expresses it
// as a Hyperclustering (worker s = stage s), which the memory planner
// (mem/planner.h) lays out unchanged — cross-stage values are cross-worker
// sends to it — and a pinned ParallelExecutor (rt/executor.h) runs with
// several batches in flight. While batch k drains stages 2..S, batch k+1 is
// already executing stage 1, each in its own run slot with its own arenas.
// At steady state, throughput is gated by the most expensive stage instead
// of the whole program — on S well-balanced stages, an S-fold model. Every
// node runs the kernels and inputs the sequential executor would use, so
// the output is bit-identical to SequentialExecutor (test-enforced across
// the zoo).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "passes/clustering.h"
#include "passes/hypercluster.h"

namespace ramiel::serve::fleet {

/// A contiguous stage cut of a clustered program.
struct StageCut {
  /// stage_nodes[s] = stage s's nodes, a contiguous segment of the graph's
  /// topological order. Every live node appears in exactly one stage, and
  /// every stage boundary falls on a cluster boundary (between two maximal
  /// same-cluster runs of the topo order).
  std::vector<std::vector<NodeId>> stage_nodes;
  /// Summed static node cost per stage (the balance objective).
  std::vector<std::int64_t> stage_cost;

  int num_stages() const { return static_cast<int>(stage_nodes.size()); }

  /// Steady-state throughput model: sequential cost / bottleneck stage
  /// cost. >= 1; equals num_stages() for a perfectly balanced cut.
  double modeled_speedup() const;
};

/// Cuts the clustered program into at most `stages` cost-balanced
/// contiguous segments of the topological node order, with boundaries only
/// between same-cluster runs (greedy: each boundary placed where the
/// running prefix first reaches the ideal fraction of total cost). Fewer
/// stages come back when the program has fewer runs.
StageCut build_stage_cut(const Graph& graph, const Clustering& clustering,
                         int stages);

/// The cut as a program for the executor: worker s runs stage s's nodes for
/// every sample, sample by sample, in topological order.
Hyperclustering stage_hyperclusters(const Graph& graph, const StageCut& cut,
                                    int batch);

}  // namespace ramiel::serve::fleet

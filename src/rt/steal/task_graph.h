// Decomposition of a hyperclustered program into a dependency-counted task
// graph — the one program representation ParallelExecutor runs, under
// either placement.
//
// One task = one (node, sample) pair — the same granularity as HyperTask —
// carrying an atomic dependency count at run time. A completed task
// decrements its successors; a successor hitting zero is runnable (pushed
// onto the finishing worker's deque under the steal placement, left for
// its home worker under the pinned one). Cross-cluster sends are therefore
// plain dependency edges.
//
// Every task still records its `home`: the worker the hyperclustering
// assigned it to. The static memory plan (src/mem/) allocates arena slots
// per (home, sample) stream assuming that stream executes in its
// topological order, so when a plan is active the builder adds a chain edge
// from each task to its stream predecessor (`chain_streams`). That pins
// every stream to its planned order — slot reuse and in-place liveness stay
// valid — while the steal scheduler remains free to run *different* streams
// on any worker, which is where stealing wins on skew. (The pinned placement
// walks each stream in order anyway; the edges are redundant there.) Without a plan the
// chain edges are dropped and the full op-level parallelism of the graph is
// exposed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "passes/hypercluster.h"

namespace ramiel::steal {

/// One schedulable unit: a node applied to one batch sample.
struct StealTask {
  NodeId node = kNoNode;
  int sample = 0;
  /// Hypercluster worker this task was statically placed on — selects the
  /// arena whose planned slots back the task's outputs.
  int home = 0;
};

/// Immutable (per compiled model) task graph; the executor copies
/// `initial_deps` into live atomic counters for every run.
struct TaskGraph {
  std::vector<StealTask> tasks;

  /// CSR successor lists: successors of task t are
  /// succ[succ_begin[t] .. succ_begin[t+1]).
  std::vector<std::int32_t> succ;
  std::vector<std::int32_t> succ_begin;

  /// Number of distinct predecessor tasks of each task (data edges, plus
  /// the stream-chain edge when chained).
  std::vector<std::int32_t> initial_deps;

  /// Tasks with zero dependencies, in task order — the run's seed set.
  std::vector<std::int32_t> seeds;

  int num_workers = 0;
  int batch = 0;
  /// True when stream-chain edges were added (memory plan active).
  bool stream_chained = false;

  std::size_t size() const { return tasks.size(); }
};

/// Builds the task graph for `hc` over `graph`. `chain_streams` adds the
/// per-stream sequencing edges required while a memory plan is active.
TaskGraph build_task_graph(const Graph& graph, const Hyperclustering& hc,
                           bool chain_streams);

}  // namespace ramiel::steal

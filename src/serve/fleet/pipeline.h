// Cross-batch pipelining of one clustered program.
//
// The clustered program is cut at cluster boundaries into S stages: the
// graph's topological node order is first grouped into maximal same-cluster
// runs (a cluster's quotient graph may be cyclic — two linear clusters can
// interleave — so whole clusters are not safe cut units, but runs of one
// cluster are, and every run boundary is still a cluster boundary). A
// greedy cost-balanced contiguous cut over those runs assigns them to
// stages — the same formulation RaNNC and popart's pipelining transform
// use for stage assignment. Each stage runs on its own thread,
// and batches flow through the stages like a processor pipeline: while
// batch k drains stages 2..S, batch k+1 is already executing stage 1. At
// steady state, throughput is gated by the most expensive stage instead of
// the whole program — on S well-balanced stages, an S-fold model.
//
// Memory: stages double-buffer their arenas. The stage cut is expressed as
// a synthetic Hyperclustering (worker s = stage s), so the existing memory
// planner (mem/planner.h) lays out per-(stage, sample) slot tables
// unchanged — cross-stage values are "cross-worker sends" to the planner
// and get pinned for the whole flight (kStepForever). Each stage owns TWO
// arena instances of its planned size, and flight f uses parity f % 2.
// With at most two flights in the pipe at once (depth-2 admission:
// flight f+2 is admitted only after flight f fully completed), the two
// in-flight batches touch disjoint parities, so a stage filling its
// parity-p arena for flight f can never overwrite slots a later stage is
// still reading for flight f-1 (parity 1-p) — even across skip edges that
// jump more than one stage. Non-overlap is test-enforced as a property.
//
// Bit-identity: a flight's stages run strictly in order on its own value
// table, executing every node with exactly the kernels and inputs the
// sequential executor would use — pipelined output is bit-identical to
// SequentialExecutor (test-enforced across the zoo).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/arena.h"
#include "mem/plan.h"
#include "passes/hypercluster.h"
#include "rt/exec_util.h"
#include "rt/executor.h"

namespace ramiel::obs {
class Gauge;
class Counter;
}  // namespace ramiel::obs

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

/// Runs batches through the stage pipeline. submit() overlaps consecutive
/// batches (depth 2); run() is the synchronous convenience wrapper.
class PipelinedRunner {
 public:
  /// Receives one flight's per-sample outputs (empty when `error` is set)
  /// and its profile: wall time from stage 0's start to the last stage's
  /// end, and one WorkerProfile per stage with that stage's busy time.
  using Completion = std::function<void(std::vector<TensorMap> outputs,
                                        std::exception_ptr error,
                                        const Profile& profile)>;

  /// The graph must outlive the runner. `label` names the occupancy metric
  /// series ({model=label}).
  PipelinedRunner(const Graph* graph, const Clustering& clustering,
                  int stages, int batch, bool mem_plan,
                  const std::string& label = "pipeline");
  ~PipelinedRunner();

  PipelinedRunner(const PipelinedRunner&) = delete;
  PipelinedRunner& operator=(const PipelinedRunner&) = delete;

  /// Enqueues one batch (size must equal batch()). The last stage thread
  /// calls `done` once the batch leaves the pipe, after the flight's arena
  /// tensors are dropped and before its depth slot is released, so the
  /// destructor's drain also waits for every callback. `done` runs on a
  /// stage thread: it must not block on anything that waits for this
  /// runner. At most two flights are in the pipe — a third submit blocks
  /// until the oldest flight completes. Safe from multiple threads.
  void submit(std::vector<TensorMap> inputs, const RunOptions& options,
              Completion done);

  /// submit() and wait: no overlap, the bit-identity reference path.
  std::vector<TensorMap> run(const std::vector<TensorMap>& inputs,
                             const RunOptions& options = {});

  int num_stages() const { return cut_.num_stages(); }
  int batch() const { return batch_; }
  const StageCut& cut() const { return cut_; }
  bool mem_plan_enabled() const { return !plan_.empty(); }
  std::uint64_t flights_completed() const;

  /// Both parities of every stage arena: (base, capacity) pairs, for the
  /// non-overlap property test. Empty before the first planned flight.
  std::vector<std::pair<const float*, std::size_t>> arena_spans() const;

 private:
  struct Flight;

  void stage_loop(int stage);
  void execute_stage(int stage, Flight& flight, const OpContext& ctx);

  const Graph* graph_;
  StageCut cut_;
  int batch_;
  Hyperclustering hc_;  // synthetic: worker s = stage s
  mem::MemPlan plan_;
  /// arenas_[stage][parity]; sized lazily on first use of each parity.
  std::vector<std::vector<mem::MemArena>> arenas_;
  /// node_slots_[stage][sample][node] = planned outputs.
  rt::PlannedSlots node_slots_;

  std::vector<obs::Gauge*> stage_busy_;
  obs::Counter* flights_total_ = nullptr;

  // Flight flow: stage s pops from queues_[s]; the admission semaphore
  // keeps at most kDepth flights between submit() and final completion.
  static constexpr int kDepth = 2;
  mutable std::mutex mu_;
  std::condition_variable admit_cv_;   // submit: wait for a free depth slot
  std::condition_variable stage_cv_;   // stage threads: wait for work
  std::vector<std::deque<std::shared_ptr<Flight>>> queues_;
  int in_flight_ = 0;
  std::uint64_t flight_seq_ = 0;
  std::uint64_t flights_completed_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace ramiel::serve::fleet

// Discrete-event simulator for clustered execution on a modeled multicore.
//
// simulate_parallel and simulate_steal model the two placements of the one
// task-graph executor, ParallelExecutor, in virtual time: they fill the
// schedule engine's task list (sim/schedule.h, one task per hypercluster
// (node, sample) pair) with durations from a measured CostProfile and
// message latencies (one per cross-worker edge) from the MachineModel, and
// run it under the engine's pinned or greedy policy. This gives
// deterministic makespans of the paper's 12-core machine on any host (this
// one has 4 vCPUs; see DESIGN.md).
#pragma once

#include <vector>

#include "passes/hypercluster.h"
#include "rt/profiler.h"
#include "sim/cost_profile.h"
#include "sim/machine.h"
#include "sim/schedule.h"

namespace ramiel {

struct SimOptions {
  int intra_op_threads = 1;
  MachineModel machine;
  bool trace = false;  // collect virtual-time TaskEvents
};

struct SimResult {
  double makespan_ms = 0.0;
  std::vector<SimWorkerStats> workers;
  /// Virtual-time trace (TaskEvent times are virtual microseconds * 1000).
  std::vector<TaskEvent> events;

  double total_slack_ms() const;

  /// Modeled energy of the run in millijoules: every worker burns active
  /// power while computing and idle power for the rest of the makespan
  /// (workers hold a core for the whole run, as the paper's per-cluster
  /// Python processes do).
  double energy_mj(const MachineModel& machine) const;
};

/// Energy of a sequential run (one active core for the whole duration).
double sequential_energy_mj(double seq_ms, const MachineModel& machine);

/// Simulates the pinned placement: every task on its hypercluster's worker,
/// per-sample streams in topological order, a worker advancing whichever
/// sample is runnable (rotating its preference after every task; see
/// sim/schedule.h) and idling only when none is. A task's outputs are
/// messages to each remote consumer worker.
SimResult simulate_parallel(const Graph& graph, const Hyperclustering& hc,
                            const CostProfile& profile,
                            const SimOptions& options = {});

/// Simulates the steal placement on the same machine model: the identical
/// task set, scheduled greedily onto k interchangeable workers (the
/// engine's kGreedy policy). Cross-worker reads are charged the machine's
/// comm cost, as the pinned placement's messages are; no messages are
/// counted. Comparing this against simulate_parallel on a skewed clustering
/// is how the bench demonstrates the steal win on a 12-core machine this
/// host does not have.
SimResult simulate_steal(const Graph& graph, const Hyperclustering& hc,
                         const CostProfile& profile,
                         const SimOptions& options = {});

/// Simulated single-worker (sequential) execution time for `batch` samples,
/// in milliseconds. Honors intra-op threading (all cores available to the
/// single worker).
double simulate_sequential_ms(const Graph& graph, const CostProfile& profile,
                              int batch, const SimOptions& options = {});

}  // namespace ramiel

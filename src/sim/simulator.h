// Discrete-event simulator for clustered execution on a modeled multicore.
//
// simulate_parallel replays the pinned (static) placement of the one
// task-graph executor, ParallelExecutor: every task on its hypercluster's
// worker, per-sample streams in topological order, a worker advances
// whichever sample is runnable and idles only when none is — but in virtual
// time, with task durations taken from a measured CostProfile and message
// latencies (one per cross-worker edge) from the MachineModel. One
// difference: the simulator rotates its sample preference after every task
// (the paper's §III-E interleave), while the runtime stays on a sample
// until it blocks, for cache locality. This gives deterministic makespans
// of the paper's 12-core machine on any host (this one has 4 vCPUs; see
// DESIGN.md).
#pragma once

#include <vector>

#include "passes/hypercluster.h"
#include "rt/profiler.h"
#include "sim/cost_profile.h"
#include "sim/machine.h"

namespace ramiel {

struct SimOptions {
  int intra_op_threads = 1;
  MachineModel machine;
  bool trace = false;  // collect virtual-time TaskEvents
};

struct SimWorkerStats {
  double busy_us = 0.0;
  double slack_us = 0.0;  // virtual idle time waiting for messages
  int tasks = 0;
  int messages_sent = 0;
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

/// Simulates the hyperclustered parallel schedule; returns its makespan.
SimResult simulate_parallel(const Graph& graph, const Hyperclustering& hc,
                            const CostProfile& profile,
                            const SimOptions& options = {});

/// Simulates the steal placement (rt/steal/) on the same machine model: the
/// identical task set, but dependency-scheduled greedily onto k
/// interchangeable workers instead of replaying the pinned per-cluster
/// placement — any idle worker takes the oldest-ready task, the idealization
/// of Chase–Lev stealing. Cross-worker reads are charged the machine's comm
/// cost, as the pinned placement's messages are. Comparing this against
/// simulate_parallel on a skewed clustering is how the bench demonstrates
/// the steal win on a 12-core machine this host does not have.
SimResult simulate_steal(const Graph& graph, const Hyperclustering& hc,
                         const CostProfile& profile,
                         const SimOptions& options = {});

/// Simulated single-worker (sequential) execution time for `batch` samples,
/// in milliseconds. Honors intra-op threading (all cores available to the
/// single worker).
double simulate_sequential_ms(const Graph& graph, const CostProfile& profile,
                              int batch, const SimOptions& options = {});

}  // namespace ramiel

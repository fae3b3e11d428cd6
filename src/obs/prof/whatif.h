// Coz-style what-if estimation over a recorded run.
//
// build_recorded_dag() freezes what actually happened as the schedule
// engine's task list (sim/schedule.h): one task per recorded (node, sample)
// event with its measured duration, data edges from the graph restricted to
// tasks that really executed, and a per-edge comm cost charged when
// producer and consumer land on different workers. The critical-path walk
// reads its edges; replay_ms() runs it under the engine's greedy policy,
// the loop sim/simulate_steal runs, so "what if node X were 2x faster" or
// "what if we had one more worker" are answered by re-running the schedule
// with durations or worker count changed — no re-execution, no
// re-measurement.
//
// Fidelity note: the replay is an estimator, not a re-simulation of either
// executor's exact policy. CriticalPathReport.replay_ms records the
// unmodified-DAG replay so callers can see the baseline gap; what-if deltas
// are quoted against that baseline, which cancels most of the policy error
// (cross-checked against src/sim/ on the model zoo in bench/ and tests/).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "rt/profiler.h"
#include "sim/schedule.h"

namespace ramiel::prof {

/// The executed task DAG: one task per recorded event in start order (a
/// topological order), home = the recorded worker, dur and comm in ns.
struct RecordedDag {
  std::vector<sim::Task> tasks;
  std::vector<std::int32_t> event;  // profile event of each task
  int workers = 1;                  // recorded worker count
};

/// Comm model for cross-worker edges in the replay.
struct ReplayComm {
  double fixed_ns = 0.0;
  double ns_per_byte = 0.0;
};

/// Estimates the comm model from the profile's recorded messages (median
/// per-message latency split into a fixed floor and a per-byte slope).
/// Returns {0, 0} when the profile recorded no consumed messages.
ReplayComm estimate_comm(const Profile& profile);

/// Builds the recorded DAG from a profile. Only (node, sample) pairs with a
/// recorded event become tasks; data edges whose producer never executed
/// (constants, graph inputs) are dropped; a (node, sample) recorded twice
/// keeps both tasks, and its consumers' edges go to the later-starting one.
/// Per-edge comm cost uses the producing value's shape (4-byte floats).
RecordedDag build_recorded_dag(const Graph& graph, const Profile& profile,
                               const ReplayComm& comm);

/// Greedy makespan of the DAG on `workers` workers, in ms. `scale`
/// (optional, per-task) multiplies each task's recorded duration — the
/// what-if hook. Comm cost is charged for each data predecessor that ran on
/// a different worker.
double replay_ms(const RecordedDag& dag, int workers,
                 const std::vector<double>* scale = nullptr);

/// Convenience: replay with every instance of `node` sped up `factor`x.
double replay_node_speedup_ms(const RecordedDag& dag, int workers,
                              NodeId node, double factor);

}  // namespace ramiel::prof

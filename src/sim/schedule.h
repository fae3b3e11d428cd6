// One discrete-event schedule engine over a (node, sample) task list.
//
// Every model of a run here is the same list: one task per (node, sample)
// pair, with a duration, a home worker, and its data predecessors, each edge
// carrying the comm delay charged when producer and consumer run on
// different workers. The simulator's two placements (simulate_parallel,
// simulate_steal) fill it from a CostProfile and the MachineModel; the
// profiler's what-if replay (obs/prof/whatif.h) fills it from a recorded
// run. The engine runs the list under one of the runtime's two placements:
//
//   kPinned  every task runs on its home worker. A worker walks its
//            per-sample streams (its tasks of one sample, in list order),
//            runs whichever stream head is ready at its clock, and rotates
//            its sample preference after every task (the paper's §III-E
//            interleave; ParallelExecutor instead stays on a sample until it
//            blocks, for cache locality). An idle worker sleeps until a
//            message (Task::sends) arrives or a known input lands.
//   kGreedy  any worker runs any task: the earliest-free worker takes the
//            ready task it can start soonest. Ties go to a local
//            continuation (every predecessor ran on that worker, what the
//            owner's LIFO pop runs under rt/steal/), then to release order.
//            The idealization of Chase–Lev stealing.
//
// Times are in whatever unit the caller fills durations and comm with (the
// simulator's microseconds, the replay's nanoseconds).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"

namespace ramiel {

struct SimWorkerStats {
  double busy_us = 0.0;
  double slack_us = 0.0;  // virtual idle time waiting for messages
  int tasks = 0;
  int messages_sent = 0;
};

namespace sim {

/// A predecessor task (Task::preds) or a message's destination worker
/// (Task::sends), with the delay charged across workers.
struct Edge {
  std::int32_t to = 0;
  double comm = 0.0;
};

struct Task {
  NodeId node = kNoNode;
  int sample = 0;
  int home = 0;  // the pinned placement's worker
  double dur = 0.0;
  /// Distinct predecessor tasks; `comm` is added when the predecessor ran
  /// on another worker.
  std::vector<Edge> preds;
  /// kPinned only: the messages this task sends when it completes, each
  /// waking worker `to` after `comm`. Not the preds reversed: the pinned
  /// placement sends one per output value per remote consumer worker,
  /// Constant outputs included.
  std::vector<Edge> sends;
};

/// Links every task to the task producing each of its non-constant inputs
/// in the same sample (the one (node, sample) index). A predecessor feeding
/// several values appears once, with the largest comm(v) among them.
/// Producers that are dead or have no task are skipped; returns how many
/// live producers had no task.
int link_data_preds(const Graph& graph, std::vector<Task>& tasks,
                    const std::function<double(ValueId)>& comm);

enum class Policy { kPinned, kGreedy };

/// One task as the engine placed it.
struct Placed {
  std::int32_t task = 0;
  int worker = 0;
  double start = 0.0;
  double end = 0.0;
};

struct Schedule {
  double makespan = 0.0;
  std::vector<SimWorkerStats> workers;
  std::vector<Placed> order;  // every task, in the order it was placed
};

/// Runs `tasks` on `workers` workers (kPinned needs every home below it).
/// Throws Error when the list cannot complete (a stalled pinned worker, or
/// a cycle).
Schedule schedule(const std::vector<Task>& tasks, int workers, Policy policy);

}  // namespace sim
}  // namespace ramiel

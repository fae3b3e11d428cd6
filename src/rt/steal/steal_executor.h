// The work-stealing placement behind the executor seam, and the factory.
//
// ParallelExecutor (rt/executor.h) runs the hyperclustered program as a
// dependency-counted task graph (task_graph.h) under one of two placements.
// With kSteal, a completed task pushes each successor it unlocks onto the
// finishing worker's Chase–Lev deque (deque.h), and an idle worker steals
// the oldest task of another worker's deque — the task most likely to
// unlock a whole region of the graph. When cluster costs are skewed (or
// several models share a machine) this rebalances the load the pinned
// placement would leave on one worker. Planned outputs still land in their
// home worker's arena slots, and chain edges keep every planned stream in
// its planned order, so the static memory plan stays valid.
//
// Observability: steals are counted in WorkerProfile::tasks_stolen and the
// ramiel_steal_steals_total counter; per-task spans carry the thread that
// actually ran the task, which is how steals become visible in a trace.
#pragma once

#include <memory>

#include "mem/plan.h"
#include "rt/executor.h"

namespace ramiel {

/// ParallelExecutor with the steal placement (kind() == kSteal).
class StealExecutor final : public ParallelExecutor {
 public:
  StealExecutor(const Graph* graph, Hyperclustering hc,
                const mem::MemPlan* mem_plan = nullptr)
      : ParallelExecutor(graph, std::move(hc), mem_plan, ExecutorKind::kSteal) {}
};

/// Constructs the requested executor behind the seam. `kind` must be
/// kStatic or kSteal — resolve kAuto (a serving-layer policy) first.
std::unique_ptr<Executor> make_executor(ExecutorKind kind, const Graph* graph,
                                        Hyperclustering hc,
                                        const mem::MemPlan* mem_plan = nullptr);

}  // namespace ramiel

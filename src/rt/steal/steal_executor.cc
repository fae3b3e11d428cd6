#include "rt/steal/steal_executor.h"

#include "support/check.h"

namespace ramiel {

std::unique_ptr<Executor> make_executor(ExecutorKind kind, const Graph* graph,
                                        Hyperclustering hc,
                                        const mem::MemPlan* mem_plan) {
  switch (kind) {
    case ExecutorKind::kStatic:
      return std::make_unique<ParallelExecutor>(graph, std::move(hc),
                                                mem_plan);
    case ExecutorKind::kSteal:
      // The concrete type, not just the placement: callers dynamic_cast to
      // StealExecutor to tell the placements apart.
      return std::make_unique<StealExecutor>(graph, std::move(hc), mem_plan);
    case ExecutorKind::kAuto:
      break;
  }
  throw Error("make_executor: resolve ExecutorKind::kAuto before construction");
}

}  // namespace ramiel

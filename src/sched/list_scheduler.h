// Greedy ETF-style list scheduler: a classic baseline used as an ablation
// against linear clustering. Ready nodes are placed on whichever of the P
// workers becomes free first, breaking ties by longest distance-to-end
// (critical-path priority). Communication costs apply when a dependence
// crosses workers.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "passes/clustering.h"
#include "sim/cost_profile.h"
#include "sim/machine.h"

namespace ramiel {

struct ListScheduleResult {
  Clustering clustering;   // node -> worker assignment as a clustering
  double makespan_ms = 0.0;  // modeled makespan of the greedy schedule
};

/// Schedules the graph onto `workers` cores with earliest-finish-time
/// greedy placement. Priorities come from the static cost model; durations
/// and message costs from the measured profile + machine model.
ListScheduleResult list_schedule(const Graph& graph,
                                 const CostProfile& profile,
                                 const MachineModel& machine, int workers);

}  // namespace ramiel

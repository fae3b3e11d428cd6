// Small helpers shared by the executors (sequential and parallel):
// resolving node inputs that are constants or graph inputs, collecting graph
// outputs that never pass through a kernel, and running a kernel into its
// planned arena slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "mem/arena.h"
#include "mem/plan.h"
#include "rt/executor.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
struct OpContext;
}  // namespace ramiel

namespace ramiel::rt {

/// Fetches one node input that is constant or a graph input; returns false
/// when the value is produced by another (live) node — the caller resolves
/// those from its own value store.
inline bool fetch_static_input(const Graph& g, ValueId v,
                               const TensorMap& sample_in, Tensor* out) {
  const Value& val = g.value(v);
  if (val.is_constant()) {
    *out = *val.const_data;
    return true;
  }
  if (val.producer == kNoNode || g.node(val.producer).dead) {
    auto it = sample_in.find(val.name);
    RAMIEL_CHECK(it != sample_in.end(),
                 str_cat("missing graph input '", val.name, "'"));
    *out = it->second;
    return true;
  }
  return false;
}

/// Collects per-sample graph outputs that are constants or graph inputs
/// (possible after aggressive folding).
inline void collect_static_outputs(const Graph& g, const TensorMap& sample_in,
                                   TensorMap* outputs) {
  for (ValueId ov : g.outputs()) {
    const Value& val = g.value(ov);
    Tensor t;
    if (fetch_static_input(g, ov, sample_in, &t)) {
      outputs->emplace(val.name, std::move(t));
    }
  }
}

inline bool is_graph_output(const Graph& g, ValueId v) {
  return std::find(g.outputs().begin(), g.outputs().end(), v) !=
         g.outputs().end();
}

/// Arena placement of one planned output of a node: where the SlotSink
/// should put the kernel's allocation for it.
struct PlannedOut {
  ValueId value;
  std::size_t offset_floats;  // from the worker arena base (slots stay
                              // 64-byte aligned, so float units are exact
                              // for every dtype)
  std::int64_t numel;
  DType dtype;  // storage dtype the sink matches alongside numel
  bool in_place;
};

/// slots[worker][sample][node] = the planned outputs of that task.
using PlannedSlots = std::vector<
    std::vector<std::unordered_map<NodeId, std::vector<PlannedOut>>>>;

/// Builds the slot table of a (non-empty) memory plan once, so the hot path
/// is one lookup per task.
PlannedSlots planned_slots(const Graph& g, const mem::MemPlan& plan);

/// Runs `n` on `inputs` with `sink` installed and primed with `outs` (the
/// node's planned outputs, null for none) at `arena_base`, so the kernel's
/// output allocations land in their arena slots. A planned, non-in-place
/// output that still shares storage with an input (an op aliasing its input
/// without being in the planner's alias list) is detached to the heap: its
/// slot would be reused while the alias class still needs the bytes.
/// Afterwards sink.taken() counts the allocations served from the arena.
std::vector<Tensor> eval_planned(const Node& n,
                                 const std::vector<Tensor>& inputs,
                                 const OpContext& ctx, mem::SlotSink& sink,
                                 float* arena_base,
                                 const std::vector<PlannedOut>* outs);

}  // namespace ramiel::rt

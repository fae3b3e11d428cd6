#include "rt/exec_util.h"

#include "graph/op_eval.h"

namespace ramiel::rt {

PlannedSlots planned_slots(const Graph& g, const mem::MemPlan& plan) {
  PlannedSlots slots(plan.workers.size());
  for (std::size_t w = 0; w < plan.workers.size(); ++w) {
    const mem::WorkerPlan& wp = plan.workers[w];
    slots[w].resize(wp.streams.size());
    for (std::size_t s = 0; s < wp.streams.size(); ++s) {
      const std::int64_t base = wp.stream_base[s];
      for (const mem::ValueSlot& slot : wp.streams[s].slots) {
        slots[w][s][g.value(slot.value).producer].push_back(PlannedOut{
            slot.value,
            static_cast<std::size_t>(base + slot.offset) / sizeof(float),
            slot.numel, slot.dtype, slot.in_place});
      }
    }
  }
  return slots;
}

std::vector<Tensor> eval_planned(const Node& n,
                                 const std::vector<Tensor>& inputs,
                                 const OpContext& ctx, mem::SlotSink& sink,
                                 float* arena_base,
                                 const std::vector<PlannedOut>* outs) {
  sink.clear();
  if (outs != nullptr) {
    for (const PlannedOut& po : *outs) {
      sink.add(arena_base + po.offset_floats,
               static_cast<std::size_t>(po.numel), po.dtype, po.in_place);
    }
  }
  std::vector<Tensor> outputs;
  {
    mem::ScopedAllocSink guard(&sink);
    outputs = eval_node(n, inputs, ctx);
  }
  if (outs == nullptr) return outputs;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    for (const PlannedOut& po : *outs) {
      if (po.value != n.outputs[i] || po.in_place) continue;
      for (const Tensor& in : inputs) {
        if (outputs[i].shares_storage_with(in)) {
          outputs[i] = outputs[i].clone();
          break;
        }
      }
      break;
    }
  }
  return outputs;
}

}  // namespace ramiel::rt

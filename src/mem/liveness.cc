#include "mem/liveness.h"

#include <algorithm>

#include "support/check.h"

namespace ramiel::mem {
namespace {

bool is_graph_output(const Graph& g, ValueId v) {
  return std::find(g.outputs().begin(), g.outputs().end(), v) !=
         g.outputs().end();
}

/// True when some live consumer of `v` runs on a different worker for this
/// sample (the value will be read by another worker).
bool has_remote_consumer(const Graph& g, const Hyperclustering& hc, ValueId v,
                         int worker, int sample) {
  for (NodeId c : g.value(v).consumers) {
    if (g.node(c).dead) continue;
    const int wc = hc.worker(c, sample);
    if (wc >= 0 && wc != worker) return true;
  }
  return false;
}

}  // namespace

bool op_inplace_unary(OpKind kind) {
  switch (kind) {
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kSilu:
    case OpKind::kTanh:
    case OpKind::kGelu:
    case OpKind::kErf:
    case OpKind::kSqrt:
    case OpKind::kExp:
    case OpKind::kNeg:
      return true;
    default:
      return false;
  }
}

bool op_inplace_binary(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kPow:
      return true;
    default:
      return false;
  }
}

StreamLiveness analyze_stream(const Graph& g, const Hyperclustering& hc,
                              int worker, int sample) {
  StreamLiveness lv;
  const auto& tasks = hc.workers[static_cast<std::size_t>(worker)];
  for (const HyperTask& t : tasks) {
    if (t.sample == sample) lv.stream.push_back(t.node);
  }

  auto extend = [&](ValueInterval& iv, int step) {
    if (iv.last_step != kStepForever) {
      iv.last_step = std::max(iv.last_step, step);
    }
  };

  for (int step = 0; step < static_cast<int>(lv.stream.size()); ++step) {
    const Node& n = g.node(lv.stream[static_cast<std::size_t>(step)]);
    if (n.kind == OpKind::kConstant) continue;

    // Uses: a read of any alias-class member keeps the root's slot live.
    for (ValueId v : n.inputs) {
      auto it = lv.root_of.find(v);
      if (it == lv.root_of.end()) continue;  // remote / constant / graph input
      extend(lv.intervals[static_cast<std::size_t>(lv.interval_of[it->second])],
             step);
    }

    const bool alias = op_is_alias(n.kind) && !n.inputs.empty();
    for (ValueId ov : n.outputs) {
      const Value& val = g.value(ov);
      if (val.is_constant()) continue;  // folded away; carries its own data

      if (alias) {
        // The kernel returns a view of input 0: no allocation happens. When
        // that input's storage is stream-local, the output joins its alias
        // class; when it is remote/constant/graph-input storage, the view
        // shares memory the stream does not manage — nothing to plan.
        auto it = lv.root_of.find(n.inputs[0]);
        if (it == lv.root_of.end()) continue;
        const ValueId root = it->second;
        lv.root_of[ov] = root;
        ValueInterval& iv =
            lv.intervals[static_cast<std::size_t>(lv.interval_of[root])];
        extend(iv, step);
        if (is_graph_output(g, ov)) iv.heap = true;
        if (has_remote_consumer(g, hc, ov, worker, sample)) {
          iv.last_step = kStepForever;
        }
        continue;
      }

      ValueInterval iv;
      iv.value = ov;
      iv.numel = val.shape.numel();
      iv.dtype = val.dtype;
      iv.bytes = iv.numel * static_cast<std::int64_t>(dtype_size(val.dtype));
      iv.def_step = step;
      iv.last_step = step;
      iv.heap = is_graph_output(g, ov) || iv.bytes <= 0;
      if (has_remote_consumer(g, hc, ov, worker, sample)) {
        iv.last_step = kStepForever;
      }
      lv.root_of[ov] = ov;
      lv.interval_of[ov] = static_cast<int>(lv.intervals.size());
      lv.intervals.push_back(iv);
    }
  }

  // Multi-output guard: the runtime's slot sink matches allocations by
  // element count and dtype, so two outputs of one node with equal numel
  // and storage could swap slots if a kernel allocated them out of order.
  // Unify their lifetimes so a swap cannot shorten either slot's validity.
  for (std::size_t i = 0; i < lv.intervals.size(); ++i) {
    for (std::size_t j = i + 1; j < lv.intervals.size(); ++j) {
      ValueInterval& a = lv.intervals[i];
      ValueInterval& b = lv.intervals[j];
      if (a.def_step != b.def_step) break;  // intervals are def-ordered
      if (a.numel != b.numel || a.dtype != b.dtype) continue;
      const int last = std::max(a.last_step, b.last_step);
      a.last_step = last;
      b.last_step = last;
    }
  }

  return lv;
}

}  // namespace ramiel::mem

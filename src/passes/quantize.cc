#include "passes/quantize.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "passes/patterns/driver.h"
#include "passes/patterns/registry.h"
#include "passes/patterns/rules.h"
#include "support/check.h"

namespace ramiel {
namespace {

// The "quantize-weights" pattern instance in the process-wide registry is
// shared across compiles; the active target dtype is thread-local state
// installed only for the duration of quantize_weights() on the calling
// thread. Outside that scope the pattern never matches, so enabling it in a
// plain pattern_rewrite run is a no-op.
thread_local DType t_target = DType::kF32;
thread_local QuantizeStats* t_stats = nullptr;
// Nodes (by id) whose weights must stay f32 because their output feeds a
// Softmax — see softmax_sensitive_region() below.
thread_local const std::vector<bool>* t_softmax_feeders = nullptr;

struct ScopedTarget {
  ScopedTarget(DType d, QuantizeStats* s, const std::vector<bool>* skip) {
    t_target = d;
    t_stats = s;
    t_softmax_feeders = skip;
  }
  ~ScopedTarget() {
    t_target = DType::kF32;
    t_stats = nullptr;
    t_softmax_feeders = nullptr;
  }
};

bool is_gemm_like(OpKind k) {
  return k == OpKind::kConv2d || k == OpKind::kGemm || k == OpKind::kMatMul;
}

/// The softmax-sensitive region of the graph: everything a Softmax input
/// depends on up to (and including) the first *weighted* dense producer.
/// Softmax is the one consumer that amplifies quantization noise instead of
/// averaging it: exp() turns an absolute logit error into a relative output
/// error scaled by the logit magnitude, so rounding anywhere on the logit
/// path — the Q/K activations, the attention-score matmul, the Wq/Wk
/// projection weights — shows up multiplied by ~|logit| after the softmax.
/// Values in the region keep f32 storage and the bounding dense nodes keep
/// f32 weights (a few matrices per attention block; the memory cost is
/// negligible next to the accuracy cliff). The walk continues *through*
/// weightless gemms (attention scores are activation x activation) and
/// stops at weighted ones — the first dense layer averages fresh rounding
/// noise over its K dimension, which is where the amplification chain ends.
struct SoftmaxSensitivity {
  std::vector<bool> weight_nodes;  // gemm-like nodes whose weights stay f32
  std::vector<bool> values;        // values on the logit path; stay f32
};

SoftmaxSensitivity softmax_sensitive_region(const Graph& g) {
  SoftmaxSensitivity sens;
  sens.weight_nodes.assign(g.nodes().size(), false);
  sens.values.assign(g.values().size(), false);
  std::vector<ValueId> stack;
  auto push = [&](ValueId vid) {
    if (!sens.values[static_cast<std::size_t>(vid)]) {
      sens.values[static_cast<std::size_t>(vid)] = true;
      stack.push_back(vid);
    }
  };
  for (const Node& n : g.nodes()) {
    if (n.dead || n.kind != OpKind::kSoftmax) continue;
    for (ValueId vid : n.inputs) push(vid);
  }
  while (!stack.empty()) {
    const Value& v = g.value(stack.back());
    stack.pop_back();
    if (v.producer == kNoNode) continue;
    const Node& p = g.node(v.producer);
    if (p.dead) continue;
    if (is_gemm_like(p.kind)) {
      const bool weighted =
          p.inputs.size() >= 2 && g.value(p.inputs[1]).is_constant();
      if (weighted) {
        sens.weight_nodes[static_cast<std::size_t>(p.id)] = true;
      } else {
        for (ValueId vid : p.inputs) push(vid);
      }
      continue;
    }
    if (!op_is_elementwise(p.kind) && !op_is_data_movement(p.kind)) continue;
    for (ValueId vid : p.inputs) push(vid);
  }
  return sens;
}

/// Output-channel axis the i8 kernels expect for the slot-1 weight of `n`.
int quant_axis_for(const Node& n) {
  switch (n.kind) {
    case OpKind::kConv2d:
      return 0;
    case OpKind::kMatMul:
      return 1;
    case OpKind::kGemm:
      return n.attrs.get_int("trans_b", 0) != 0 ? 0 : 1;
    default:
      return -1;
  }
}

/// Returns the per-output-channel axis for rewriting weight value `wid`, or
/// -1 when the rewrite is unsafe. Safe means every live consumer reads the
/// value at slot 1 of a Conv2d/Gemm/MatMul — the only slots the kernels
/// accept low-precision weights at — and, for i8, all consumers agree on
/// the output-channel axis (a [K,N] matmul weight shared with a trans_b
/// gemm would need scales on both axes). For f16/bf16 the axis is
/// irrelevant and 0 is returned for any safe value.
int weight_rewrite_axis(const Graph& g, ValueId wid, DType target) {
  const Value& w = g.value(wid);
  int axis = -1;
  bool any_use = false;
  for (NodeId cid : w.consumers) {
    const Node& c = g.node(cid);
    if (c.dead) continue;
    for (std::size_t s = 0; s < c.inputs.size(); ++s) {
      if (c.inputs[s] != wid) continue;
      if (s != 1 || !is_gemm_like(c.kind)) return -1;
      if (c.kind == OpKind::kMatMul && w.shape.rank() != 2) return -1;
      any_use = true;
      if (target == DType::kI8) {
        const int a = quant_axis_for(c);
        if (axis != -1 && axis != a) return -1;
        axis = a;
      }
    }
  }
  if (!any_use) return -1;
  return target == DType::kI8 ? axis : 0;
}

class QuantizeWeights final : public patterns::Pattern {
 public:
  std::string_view name() const override { return "quantize-weights"; }
  std::string_view description() const override {
    return "rewrite Conv/Gemm/MatMul weight initializers to the configured "
           "low-precision storage dtype";
  }
  bool enabled_by_default() const override { return false; }

  bool match(const Graph& g, NodeId root) const override {
    if (t_target == DType::kF32) return false;
    if (t_softmax_feeders != nullptr &&
        (*t_softmax_feeders)[static_cast<std::size_t>(root)]) {
      return false;
    }
    const Node& n = g.node(root);
    if (!is_gemm_like(n.kind) || n.inputs.size() < 2) return false;
    const Value& w = g.value(n.inputs[1]);
    if (!w.is_constant() || w.const_data->dtype() != DType::kF32) return false;
    return weight_rewrite_axis(g, n.inputs[1], t_target) >= 0;
  }

  // The rewrite mutates the initializer's payload in place; no value is
  // rebound or removed from the dataflow.
  std::vector<ValueId> replaced_values(const Graph&, NodeId) const override {
    return {};
  }

  bool apply(Graph& g, NodeId root) override {
    const Node& n = g.node(root);
    Value& w = g.value(n.inputs[1]);
    const int axis = weight_rewrite_axis(g, n.inputs[1], t_target);
    RAMIEL_CHECK(axis >= 0, "quantize-weights: match/apply disagreement");
    const std::int64_t before = w.const_data->byte_size();
    Tensor converted = t_target == DType::kI8
                           ? w.const_data->quantize_per_channel(axis)
                           : w.const_data->cast(t_target);
    if (t_stats != nullptr) {
      t_stats->weights_quantized += 1;
      t_stats->weight_bytes_before += before;
      t_stats->weight_bytes_after += converted.byte_size();
    }
    w.dtype = converted.dtype();
    w.const_data = std::move(converted);
    return true;
  }
};

}  // namespace

QuantizeStats quantize_weights(
    Graph& g, DType dtype,
    const std::unordered_map<std::string, float>& calibration) {
  QuantizeStats stats;
  if (dtype == DType::kF32) return stats;

  // Compile-time conversions must not claim a runtime arena slot.
  AllocSink* prev_sink = set_thread_alloc_sink(nullptr);

  // 1) Weight initializers, through the pattern driver so the rewrite is
  //    guarded, counted and registry-visible like any other rule. Producers
  //    of softmax logits are exempt (exp() amplifies their rounding noise by
  //    the logit magnitude — see softmax_sensitive_region).
  const SoftmaxSensitivity sens = softmax_sensitive_region(g);
  {
    ScopedTarget scope(dtype, &stats, &sens.weight_nodes);
    patterns::PatternRunOptions opt;
    for (const auto& pname : patterns::pattern_registry().names()) {
      opt.enable[pname] = false;
    }
    opt.enable["quantize-weights"] = true;
    patterns::run_patterns(g, opt);
  }

  // 2) Activation demotion. i8 activation chains would need requantization
  //    at every edge and accumulate error past the documented tolerance, so
  //    the i8 target stores activations as f16; the quantized GEMM packs
  //    f16 inputs directly.
  const DType act_dt = dtype == DType::kI8 ? DType::kF16 : dtype;
  std::vector<bool> eligible(g.values().size(), false);
  std::vector<bool> is_output(g.values().size(), false);
  for (ValueId o : g.outputs()) is_output[static_cast<std::size_t>(o)] = true;

  for (const Value& v : g.values()) {
    const auto vi = static_cast<std::size_t>(v.id);
    // Graph inputs, initializers and folded constants keep their dtype (the
    // model interface stays f32; constants were handled above), as do Shape
    // results (consumers read exact dims) and graph outputs.
    if (v.is_constant() || v.producer == kNoNode || is_output[vi]) continue;
    // Values on a softmax logit path stay f32 (see softmax_sensitive_region).
    if (sens.values[vi]) continue;
    const Node& p = g.node(v.producer);
    if (p.dead || p.kind == OpKind::kShape) continue;
    if (p.outputs.size() != 1) continue;  // "sdtype" is a per-node attr
    bool ok = true;
    for (NodeId cid : v.consumers) {
      const Node& c = g.node(cid);
      if (c.dead) continue;
      for (std::size_t s = 0; s < c.inputs.size() && ok; ++s) {
        if (c.inputs[s] != v.id) continue;
        // Slots read as exact metadata (shapes, indices) or as fp32 kernel
        // state (fused bias epilogue) must stay f32. So must inputs of the
        // error-amplifying ops: exp() (and softmax logits) scale an
        // absolute input error by the value's magnitude, and layer norm
        // divides by a data-dependent stddev — demoting right before them
        // costs far more accuracy than demoting anywhere else.
        ok = !((c.kind == OpKind::kReshape && s == 1) ||
               (c.kind == OpKind::kGather && s == 1) ||
               (c.kind == OpKind::kEmbedding && s == 1) ||
               ((c.kind == OpKind::kConv2d || c.kind == OpKind::kGemm) &&
                s == 2) ||
               c.kind == OpKind::kSoftmax || c.kind == OpKind::kLayerNorm ||
               c.kind == OpKind::kExp);
      }
      if (!ok) break;
    }
    eligible[vi] = ok;
  }

  // Reshape-like ops return a view of their input, so both sides of every
  // alias edge must agree on storage; propagate ineligibility across alias
  // chains to a fixed point.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Node& n : g.nodes()) {
      if (n.dead || !op_is_alias(n.kind)) continue;
      if (n.inputs.empty() || n.outputs.empty()) continue;
      const auto a = static_cast<std::size_t>(n.inputs[0]);
      const auto b = static_cast<std::size_t>(n.outputs[0]);
      const bool both = eligible[a] && eligible[b];
      if (eligible[a] != both || eligible[b] != both) {
        eligible[a] = both;
        eligible[b] = both;
        changed = true;
      }
    }
  }

  for (Value& v : g.values()) {
    if (!eligible[static_cast<std::size_t>(v.id)]) continue;
    v.dtype = act_dt;
    stats.values_demoted += 1;
    Node& p = g.node(v.producer);
    // Alias producers follow their input's storage at runtime; everyone
    // else reads the attr (gemm-like ops via out_dtype, the rest via the
    // eval_node downcast wrapper).
    if (!op_is_alias(p.kind)) {
      p.attrs.set("sdtype", std::string(dtype_name(act_dt)));
    }
  }

  // 3) Calibrated activation ranges: stamp i8-weight consumers whose
  //    activation input has a recorded absmax so the kernel skips its
  //    per-call dynamic-range scan.
  if (dtype == DType::kI8) {
    for (Node& n : g.nodes()) {
      if (n.dead || !is_gemm_like(n.kind) || n.inputs.size() < 2) continue;
      const Value& w = g.value(n.inputs[1]);
      if (!w.is_constant() || w.const_data->dtype() != DType::kI8) continue;
      const auto it = calibration.find(g.value(n.inputs[0]).name);
      if (it == calibration.end()) continue;
      n.attrs.set("aq_scale", static_cast<double>(it->second));
      stats.nodes_calibrated += 1;
    }
  }

  set_thread_alloc_sink(prev_sink);
  return stats;
}

namespace patterns {

std::unique_ptr<Pattern> make_quantize_weights() {
  return std::make_unique<QuantizeWeights>();
}

}  // namespace patterns
}  // namespace ramiel

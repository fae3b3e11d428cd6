// Elementwise-scale folding: a Mul by a per-output-channel (or scalar)
// constant directly consuming a Conv2d/Gemm with constant weights scales
// the weights (and bias) at compile time and the Mul node dies. Together
// with absorb-bias-add and fuse-activations this collapses whole
// Conv -> Mul -> Add -> Relu epilogue chains into one fused kernel call.
#include <cstdint>

#include "passes/patterns/rules.h"
#include "support/string_util.h"

namespace ramiel::patterns {
namespace {

ValueId const_operand(const Graph& g, const Node& n) {
  if (n.inputs.size() != 2) return -1;
  const bool c0 = g.value(n.inputs[0]).is_constant();
  const bool c1 = g.value(n.inputs[1]).is_constant();
  if (c0 == c1) return -1;
  return c0 ? n.inputs[0] : n.inputs[1];
}

ValueId produced_operand(const Node& n, ValueId constant) {
  return n.inputs[0] == constant ? n.inputs[1] : n.inputs[0];
}

std::int64_t out_channels(const Graph& g, const Node& prod) {
  const Shape& w = g.value(prod.inputs[1]).shape;
  if (prod.kind == OpKind::kConv2d) {
    return w.rank() == 4 ? w.dim(0) : -1;
  }
  if (w.rank() != 2) return -1;
  return prod.attrs.get_int("trans_b", 0) != 0 ? w.dim(0) : w.dim(1);
}

bool per_channel_broadcast(const Shape& shape, std::int64_t channels,
                           OpKind producer_kind) {
  if (shape.numel() == 1) return true;
  if (shape.numel() != channels) return false;
  if (producer_kind == OpKind::kGemm) {
    return shape.dim(shape.rank() - 1) == channels;
  }
  if (shape.rank() < 3) return false;
  return shape.dim(shape.rank() - 3) == channels;
}

class FoldScaleMul final : public Pattern {
 public:
  std::string_view name() const override { return "fold-scale-mul"; }
  std::string_view description() const override {
    return "fold Mul by a per-channel constant into Conv2d/Gemm weights";
  }

  bool match(const Graph& g, NodeId root) const override {
    const Node& mul = g.node(root);
    if (mul.kind != OpKind::kMul) return false;
    const ValueId c = const_operand(g, mul);
    if (c < 0) return false;
    const Value& x = g.value(produced_operand(mul, c));
    if (x.producer == kNoNode) return false;
    const Node& prod = g.node(x.producer);
    if (prod.kind != OpKind::kConv2d && prod.kind != OpKind::kGemm) {
      return false;
    }
    // Scaling weights rewrites the pre-activation result; a fused
    // activation in between makes that algebra wrong.
    if (prod.attrs.has("act")) return false;
    if (!g.value(prod.inputs[1]).is_constant()) return false;
    if (prod.inputs.size() == 3 && !g.value(prod.inputs[2]).is_constant()) {
      return false;
    }
    const std::int64_t channels = out_channels(g, prod);
    if (channels <= 0) return false;
    // The bias is rebuilt per channel below. A conv bias always is ([K]);
    // a Gemm bias may also vary along M ([M,1], [M,N]) and is left alone.
    if (prod.kind == OpKind::kGemm && prod.inputs.size() == 3 &&
        !per_channel_broadcast(g.value(prod.inputs[2]).shape, channels,
                               prod.kind)) {
      return false;
    }
    return per_channel_broadcast(g.value(c).shape, channels, prod.kind);
  }

  std::vector<ValueId> exclusive_values(const Graph& g,
                                        NodeId root) const override {
    const Node& mul = g.node(root);
    return {produced_operand(mul, const_operand(g, mul))};
  }

  bool apply(Graph& g, NodeId root) override {
    const Node& mul = g.node(root);
    const ValueId c = const_operand(g, mul);
    const NodeId prod_id = g.value(produced_operand(mul, c)).producer;
    const Node& prod = g.node(prod_id);
    const std::int64_t channels = out_channels(g, prod);
    auto scale_at = [&g, c](std::int64_t k) {
      auto s = g.value(c).const_data->data();
      return s[s.size() == 1 ? 0 : static_cast<std::size_t>(k)];
    };

    // Scaled weights: conv weights are [K, ...] (channel-major), Gemm
    // weights are [K, N] (scale column n) or [N, K] under trans_b (scale
    // row n).
    const Tensor& w = *g.value(prod.inputs[1]).const_data;
    Tensor new_w(w.shape());
    {
      auto src = w.data();
      auto dst = new_w.mutable_data();
      if (prod.kind == OpKind::kConv2d ||
          prod.attrs.get_int("trans_b", 0) != 0) {
        const std::int64_t per_k = w.numel() / channels;
        for (std::int64_t k = 0; k < channels; ++k) {
          const float a = scale_at(k);
          for (std::int64_t i = 0; i < per_k; ++i) {
            dst[static_cast<std::size_t>(k * per_k + i)] =
                src[static_cast<std::size_t>(k * per_k + i)] * a;
          }
        }
      } else {
        const std::int64_t rows = w.shape().dim(0);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t n = 0; n < channels; ++n) {
            dst[static_cast<std::size_t>(r * channels + n)] =
                src[static_cast<std::size_t>(r * channels + n)] *
                scale_at(n);
          }
        }
      }
    }
    const ValueId wn = g.add_initializer(
        str_cat(prod.name, "_scaled_w", root), std::move(new_w));
    g.replace_node_input(prod_id, 1, wn);

    if (g.node(prod_id).inputs.size() == 3) {
      // Rebuilt as a rank-1 [channels] vector: a scalar bias under a
      // per-channel scale becomes channel-varying.
      const Tensor& b = *g.value(g.node(prod_id).inputs[2]).const_data;
      Tensor new_b(Shape{channels});
      auto src = b.data();
      auto dst = new_b.mutable_data();
      for (std::int64_t k = 0; k < channels; ++k) {
        dst[static_cast<std::size_t>(k)] =
            src[b.numel() == 1 ? 0 : static_cast<std::size_t>(k)] *
            scale_at(k);
      }
      const ValueId bn = g.add_initializer(
          str_cat(g.node(prod_id).name, "_scaled_b", root), std::move(new_b));
      g.replace_node_input(prod_id, 2, bn);
    }

    g.replace_value_uses(g.node(root).outputs[0],
                         g.node(prod_id).outputs[0]);
    g.kill_node(root);
    return true;
  }
};

}  // namespace

std::unique_ptr<Pattern> make_fold_scale_mul() {
  return std::make_unique<FoldScaleMul>();
}

}  // namespace ramiel::patterns

// Add-bias absorption: an Add of a per-output-channel (or scalar) constant
// directly consuming a Conv2d/Gemm folds into the producer's bias input —
// the kernel backend's fused bias epilogue then applies it during the
// write-back instead of as a separate elementwise task. If the producer
// already carries a constant bias the constants sum, so Add chains collapse
// round by round under the fixed-point driver.
#include <cstdint>

#include "passes/patterns/rules.h"
#include "support/string_util.h"

namespace ramiel::patterns {
namespace {

/// The constant operand of a binary elementwise node, or -1 when the node
/// does not have exactly one constant and one produced operand.
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

/// Output channels of the producer: Conv2d -> weight dim 0, Gemm -> the N
/// dimension of B under trans_b. -1 when the weight shape is unknown.
std::int64_t out_channels(const Graph& g, const Node& prod) {
  const Shape& w = g.value(prod.inputs[1]).shape;
  if (prod.kind == OpKind::kConv2d) {
    return w.rank() == 4 ? w.dim(0) : -1;
  }
  if (w.rank() != 2) return -1;
  return prod.attrs.get_int("trans_b", 0) != 0 ? w.dim(0) : w.dim(1);
}

/// True when `shape` broadcasts the constant per output channel of `prod`'s
/// result (channel axis for NCHW conv output, trailing axis for Gemm), or
/// is a scalar.
bool per_channel_broadcast(const Shape& shape, std::int64_t channels,
                           OpKind producer_kind) {
  if (shape.numel() == 1) return true;
  if (shape.numel() != channels) return false;
  if (producer_kind == OpKind::kGemm) {
    // Gemm output is [M, N]: the constant must align with the trailing N.
    return shape.dim(shape.rank() - 1) == channels;
  }
  // Conv output is [N, C, H, W]: C sits third from the end; every other
  // dim must be 1 or the constant would vary along H/W/batch.
  if (shape.rank() < 3) return false;
  return shape.dim(shape.rank() - 3) == channels;
}

/// Materializes the constant as a rank-1 [channels] bias tensor (splatting
/// scalars), the only bias layout conv2d accepts.
Tensor as_bias_vector(const Tensor& c, std::int64_t channels) {
  Tensor out(Shape{channels});
  auto dst = out.mutable_data();
  auto src = c.data();
  for (std::int64_t k = 0; k < channels; ++k) {
    dst[static_cast<std::size_t>(k)] =
        src[c.numel() == 1 ? 0 : static_cast<std::size_t>(k)];
  }
  return out;
}

class AbsorbBiasAdd final : public Pattern {
 public:
  std::string_view name() const override { return "absorb-bias-add"; }
  std::string_view description() const override {
    return "absorb Add of a per-channel constant into the Conv2d/Gemm bias";
  }

  bool match(const Graph& g, NodeId root) const override {
    const Node& add = g.node(root);
    if (add.kind != OpKind::kAdd) return false;
    const ValueId c = const_operand(g, add);
    if (c < 0) return false;
    const Value& x = g.value(produced_operand(add, c));
    if (x.producer == kNoNode) return false;
    const Node& prod = g.node(x.producer);
    if (prod.kind != OpKind::kConv2d && prod.kind != OpKind::kGemm) {
      return false;
    }
    // The bias epilogue applies before the activation; a producer that
    // already fused an activation cannot take a post-activation Add.
    if (prod.attrs.has("act")) return false;
    const std::int64_t channels = out_channels(g, prod);
    if (channels <= 0) return false;
    // An existing bias is summed per channel. A conv bias always is ([K]);
    // a Gemm bias may also vary along M ([M,1], [M,N]) and is left alone.
    if (prod.inputs.size() == 3) {
      const Value& old = g.value(prod.inputs[2]);
      if (!old.is_constant()) return false;
      if (prod.kind == OpKind::kGemm &&
          !per_channel_broadcast(old.const_data->shape(), channels,
                                 prod.kind)) {
        return false;
      }
    }
    return per_channel_broadcast(g.value(c).shape, channels, prod.kind);
  }

  std::vector<ValueId> exclusive_values(const Graph& g,
                                        NodeId root) const override {
    // Other consumers of the producer output would see the biased value.
    const Node& add = g.node(root);
    return {produced_operand(add, const_operand(g, add))};
  }

  bool apply(Graph& g, NodeId root) override {
    const Node& add = g.node(root);
    const ValueId c = const_operand(g, add);
    const NodeId prod_id = g.value(produced_operand(add, c)).producer;
    const Node& prod = g.node(prod_id);
    const std::int64_t channels = out_channels(g, prod);

    Tensor bias = as_bias_vector(*g.value(c).const_data, channels);
    if (prod.inputs.size() == 3) {
      auto old = g.value(prod.inputs[2]).const_data->data();
      auto dst = bias.mutable_data();
      for (std::int64_t k = 0; k < channels; ++k) {
        dst[static_cast<std::size_t>(k)] +=
            old[old.size() == 1 ? 0 : static_cast<std::size_t>(k)];
      }
    }
    const ValueId bias_id = g.add_initializer(
        str_cat(prod.name, "_absorbed_b", root), std::move(bias));
    if (g.node(prod_id).inputs.size() == 3) {
      g.replace_node_input(prod_id, 2, bias_id);
    } else {
      g.append_node_input(prod_id, bias_id);
    }
    g.replace_value_uses(g.node(root).outputs[0],
                         g.node(prod_id).outputs[0]);
    g.kill_node(root);
    return true;
  }
};

}  // namespace

std::unique_ptr<Pattern> make_absorb_bias_add() {
  return std::make_unique<AbsorbBiasAdd>();
}

}  // namespace ramiel::patterns

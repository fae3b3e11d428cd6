// Relu/Sigmoid -> producer kernel-epilogue fusion (the "fuse-activations"
// pattern; `ramiel --fuse-act` forces it on). The kernel backend applies the
// activation during the GEMM/conv write-back, so the pre-activation tensor
// never materializes. Graph-output and single-consumer guards live in the
// driver (pattern.h).
#include "passes/patterns/rules.h"

namespace ramiel::patterns {
namespace {

class FuseActivations final : public Pattern {
 public:
  std::string_view name() const override { return "fuse-activations"; }
  std::string_view description() const override {
    return "fold Relu/Sigmoid into the preceding Conv2d/Gemm epilogue";
  }

  bool match(const Graph& g, NodeId root) const override {
    const Node& act = g.node(root);
    if (act.kind != OpKind::kRelu && act.kind != OpKind::kSigmoid) {
      return false;
    }
    if (act.inputs.size() != 1) return false;
    // The producer must be a Conv2d/Gemm without an epilogue yet; the
    // driver's exclusive_values guard ensures this activation is its only
    // consumer (another consumer would need the pre-activation tensor).
    const Value& x = g.value(act.inputs[0]);
    if (x.producer == kNoNode) return false;
    const Node& prod = g.node(x.producer);
    if (prod.kind != OpKind::kConv2d && prod.kind != OpKind::kGemm) {
      return false;
    }
    return !prod.attrs.has("act");  // one epilogue per node
  }

  std::vector<ValueId> exclusive_values(const Graph& g,
                                        NodeId root) const override {
    return {g.node(root).inputs[0]};
  }

  bool apply(Graph& g, NodeId root) override {
    const Node& act = g.node(root);
    Node& prod = g.node(g.value(act.inputs[0]).producer);
    prod.attrs.set("act", act.kind == OpKind::kRelu ? std::string("relu")
                                                    : std::string("sigmoid"));
    g.replace_value_uses(act.outputs[0], prod.outputs[0]);
    g.kill_node(root);
    return true;
  }
};

}  // namespace

std::unique_ptr<Pattern> make_fuse_activation() {
  return std::make_unique<FuseActivations>();
}

}  // namespace ramiel::patterns

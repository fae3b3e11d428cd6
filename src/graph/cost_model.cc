#include "graph/cost_model.h"

namespace ramiel {

std::int64_t node_weight(const Node& node) {
  switch (node.kind) {
    case OpKind::kConv2d: {
      // Kernel size comes from the "kernel" attribute when present (set by
      // all builders/importers); fall back to 3x3 cost otherwise.
      const std::int64_t k = node.attrs.get_int("kernel", 3);
      if (k >= 7) return 14;
      if (k >= 5) return 10;
      if (k >= 2) return 6;
      return 2;
    }
    case OpKind::kMatMul:
      return 200;
    case OpKind::kGemm:
      return 12;
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kResize:
    case OpKind::kBatchNorm:
    case OpKind::kLayerNorm:
    case OpKind::kSoftmax:
    case OpKind::kReduceMean:
      return 2;
    case OpKind::kEmbedding:
      return 4;
    case OpKind::kConstant:
      return 0;
    default:
      return 1;  // data movement and element-wise ops
  }
}

std::int64_t total_weight(const Graph& graph) {
  std::int64_t total = 0;
  for (const Node& n : graph.nodes()) {
    if (!n.dead) total += node_weight(n);
  }
  return total;
}

}  // namespace ramiel

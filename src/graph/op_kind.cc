#include "graph/op_kind.h"

#include <array>
#include <utility>

#include "support/check.h"

namespace ramiel {
namespace {

struct OpInfo {
  OpKind kind;
  std::string_view name;
  std::string_view torch_name;
};

constexpr std::array<OpInfo, 36> kOps = {{
    {OpKind::kConstant, "Constant", ""},
    {OpKind::kConv2d, "Conv", "torch.nn.functional.conv2d"},
    {OpKind::kMaxPool, "MaxPool", "torch.nn.functional.max_pool2d"},
    {OpKind::kAvgPool, "AveragePool", "torch.nn.functional.avg_pool2d"},
    {OpKind::kGlobalAvgPool, "GlobalAveragePool",
     "torch.nn.functional.adaptive_avg_pool2d"},
    {OpKind::kResize, "Resize", "torch.nn.functional.interpolate"},
    {OpKind::kMatMul, "MatMul", "torch.matmul"},
    {OpKind::kGemm, "Gemm", "torch.nn.functional.linear"},
    {OpKind::kRelu, "Relu", "torch.relu"},
    {OpKind::kLeakyRelu, "LeakyRelu", "torch.nn.functional.leaky_relu"},
    {OpKind::kSigmoid, "Sigmoid", "torch.sigmoid"},
    {OpKind::kSilu, "Silu", "torch.nn.functional.silu"},
    {OpKind::kTanh, "Tanh", "torch.tanh"},
    {OpKind::kGelu, "Gelu", "torch.nn.functional.gelu"},
    {OpKind::kErf, "Erf", "torch.erf"},
    {OpKind::kSqrt, "Sqrt", "torch.sqrt"},
    {OpKind::kExp, "Exp", "torch.exp"},
    {OpKind::kNeg, "Neg", "torch.neg"},
    {OpKind::kIdentity, "Identity", ""},
    {OpKind::kAdd, "Add", "torch.add"},
    {OpKind::kSub, "Sub", "torch.sub"},
    {OpKind::kMul, "Mul", "torch.mul"},
    {OpKind::kDiv, "Div", "torch.div"},
    {OpKind::kPow, "Pow", "torch.pow"},
    {OpKind::kBatchNorm, "BatchNormalization",
     "torch.nn.functional.batch_norm"},
    {OpKind::kLayerNorm, "LayerNormalization",
     "torch.nn.functional.layer_norm"},
    {OpKind::kSoftmax, "Softmax", "torch.softmax"},
    {OpKind::kReduceMean, "ReduceMean", "torch.mean"},
    {OpKind::kConcat, "Concat", "torch.cat"},
    {OpKind::kSlice, "Slice", ""},
    {OpKind::kGather, "Gather", "torch.index_select"},
    {OpKind::kTranspose, "Transpose", "torch.permute"},
    {OpKind::kReshape, "Reshape", "torch.reshape"},
    {OpKind::kFlatten, "Flatten", "torch.flatten"},
    {OpKind::kShape, "Shape", ""},
    {OpKind::kUnsqueeze, "Unsqueeze", "torch.unsqueeze"},
}};

}  // namespace

std::string_view op_kind_name(OpKind kind) {
  for (const OpInfo& info : kOps) {
    if (info.kind == kind) return info.name;
  }
  // kSqueeze and kEmbedding do not fit in the array initializer above; handle
  // the tail explicitly to keep the table readable.
  switch (kind) {
    case OpKind::kSqueeze: return "Squeeze";
    case OpKind::kEmbedding: return "Embedding";
    default: break;
  }
  RAMIEL_UNREACHABLE("unknown OpKind");
}

std::optional<OpKind> op_kind_from_name(std::string_view name) {
  for (const OpInfo& info : kOps) {
    if (info.name == name) return info.kind;
  }
  if (name == "Squeeze") return OpKind::kSqueeze;
  if (name == "Embedding") return OpKind::kEmbedding;
  return std::nullopt;
}

std::string_view op_kind_torch_name(OpKind kind) {
  for (const OpInfo& info : kOps) {
    if (info.kind == kind) return info.torch_name;
  }
  switch (kind) {
    case OpKind::kSqueeze: return "torch.squeeze";
    case OpKind::kEmbedding: return "torch.nn.functional.embedding";
    default: break;
  }
  return "";
}

bool op_is_elementwise(OpKind kind) {
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
    case OpKind::kIdentity:
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

bool op_is_data_movement(OpKind kind) {
  switch (kind) {
    case OpKind::kConcat:
    case OpKind::kSlice:
    case OpKind::kGather:
    case OpKind::kTranspose:
    case OpKind::kReshape:
    case OpKind::kFlatten:
    case OpKind::kShape:
    case OpKind::kUnsqueeze:
    case OpKind::kSqueeze:
      return true;
    default:
      return false;
  }
}

bool op_is_alias(OpKind kind) {
  switch (kind) {
    case OpKind::kIdentity:
    case OpKind::kReshape:
    case OpKind::kFlatten:
    case OpKind::kSqueeze:
    case OpKind::kUnsqueeze:
      return true;
    default:
      return false;
  }
}

int op_kind_count() { return static_cast<int>(OpKind::kEmbedding) + 1; }

}  // namespace ramiel

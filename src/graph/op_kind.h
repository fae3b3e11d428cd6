// Operator vocabulary of the dataflow IR. This is the ONNX subset the eight
// evaluation models need (plus a couple of PyTorch-flavored fusions like Silu
// that Yolo V5 exports).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace ramiel {

enum class OpKind {
  // Sources
  kConstant,
  // Convolutions / pooling
  kConv2d,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kResize,
  // Dense products
  kMatMul,
  kGemm,
  // Activations / unary elementwise
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kSilu,
  kTanh,
  kGelu,
  kErf,
  kSqrt,
  kExp,
  kNeg,
  kIdentity,
  // Binary elementwise
  kAdd,
  kSub,
  kMul,
  kDiv,
  kPow,
  // Normalization / reductions
  kBatchNorm,
  kLayerNorm,
  kSoftmax,
  kReduceMean,
  // Shape & data movement
  kConcat,
  kSlice,
  kGather,
  kTranspose,
  kReshape,
  kFlatten,
  kShape,
  kUnsqueeze,
  kSqueeze,
  // Lookup
  kEmbedding,
};

/// Canonical (ONNX-style) name, e.g. "Conv", "Relu", "MatMul".
std::string_view op_kind_name(OpKind kind);

/// Parses an op name back to its kind; nullopt for unknown names.
std::optional<OpKind> op_kind_from_name(std::string_view name);

/// PyTorch expression the code generator emits for this op (e.g.
/// "torch.nn.functional.conv2d"). Empty for ops generated structurally.
std::string_view op_kind_torch_name(OpKind kind);

/// True for pure unary/binary elementwise ops (static weight 1 in the
/// paper's cost model).
bool op_is_elementwise(OpKind kind);

/// True for shape/data-movement ops that do no arithmetic.
bool op_is_data_movement(OpKind kind);

/// True for ops whose kernel returns a view sharing the input's buffer
/// (Identity, Reshape, Flatten, Squeeze, Unsqueeze), so the output's storage
/// and dtype are the input's.
bool op_is_alias(OpKind kind);

/// Number of ops in the enum (for iteration in tests).
int op_kind_count();

}  // namespace ramiel

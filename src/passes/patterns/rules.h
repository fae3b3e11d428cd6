// Factories for the builtin rewrite rules, one per rule file under
// src/passes/patterns/. Registration order (= driver application order
// within a round) follows the natural collapse direction of a
// Conv -> (shape consts) -> Mul -> Add -> Relu chain: constants fold first,
// scales fold into weights, biases absorb, activations fuse last.
#pragma once

#include <memory>

#include "passes/patterns/pattern.h"

namespace ramiel::patterns {

/// Transpose/Reshape/Flatten/Squeeze/Unsqueeze of a constant initializer
/// evaluates at compile time; the node dies and its output value becomes
/// the folded constant (keeping its id and name).
std::unique_ptr<Pattern> make_constexpr_shape_ops();

/// Identity nodes forward their input; consumers read the input directly.
std::unique_ptr<Pattern> make_drop_identity();

/// Conv+BatchNorm weight folding: BN statistics fold into the conv's
/// weights and bias, the BN node dies.
std::unique_ptr<Pattern> make_fold_batch_norms();

/// Mul by a per-output-channel (or scalar) constant folds into the
/// preceding Conv2d/Gemm's constant weights and bias.
std::unique_ptr<Pattern> make_fold_scale_mul();

/// Add of a per-output-channel (or scalar) constant becomes the bias input
/// of the preceding bias-less Conv2d/Gemm — the kernel backend's fused
/// bias epilogue absorbs it.
std::unique_ptr<Pattern> make_absorb_bias_add();

/// Relu/Sigmoid folds into the preceding Conv2d/Gemm kernel epilogue
/// (attrs["act"]); the activation node dies.
std::unique_ptr<Pattern> make_fuse_activation();

/// Conv/Gemm/MatMul weight initializers rewrite to a low-precision storage
/// dtype (f16/bf16 cast or per-channel i8 quantization). Default-disabled;
/// inert unless driven by the quantize_weights pass (passes/quantize.h),
/// which installs the target dtype for the duration of its run.
std::unique_ptr<Pattern> make_quantize_weights();

}  // namespace ramiel::patterns

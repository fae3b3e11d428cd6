// CPU operator kernels for the tensor runtime.
//
// These are the kernels the cluster runtime executes; they stand in for the
// PyTorch operators the paper's generated Python calls. Conventions follow
// ONNX: activations are NCHW, conv weights are [K, C/groups, R, S], matmul
// broadcasts leading batch dims. Every kernel allocates a fresh output.
//
// Kernels that have enough work to split (conv2d, matmul, pooling) accept an
// OpContext and use dispatch_parallel_for; elementwise ops are memory-bound
// and always run serially, mirroring where PyTorch's intra-op parallelism
// actually pays off.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"

namespace ramiel {

// ---------------------------------------------------------------------------
// Convolution and pooling
// ---------------------------------------------------------------------------

/// Parameters for conv2d / pooling windows.
struct Conv2dParams {
  int stride_h = 1, stride_w = 1;
  int pad_h = 0, pad_w = 0;     // symmetric padding
  int dilation_h = 1, dilation_w = 1;
  int groups = 1;
  /// Activation fused into the conv write-back (set by the activation-fusion
  /// pass; applied identically on the implicit-GEMM and direct paths).
  kernels::Activation act = kernels::Activation::kNone;
  /// Output storage dtype (f32/f16/bf16; compute stays fp32 regardless).
  DType out_dtype = DType::kF32;
  /// Calibrated absmax of the activation input, used by the i8-weight path
  /// to skip the per-call dynamic-range scan. Negative: measure per call.
  float act_absmax = -1.0f;
};

/// 2-D convolution: input [N,C,H,W], weight [K,C/g,R,S], optional bias [K].
/// Input may be stored f32/f16/bf16; weight additionally may be i8 with
/// per-output-channel QuantMeta (axis 0), which routes dense convs through
/// the quantized GEMM.
Tensor conv2d(const Tensor& input, const Tensor& weight,
              const std::optional<Tensor>& bias, const Conv2dParams& p,
              const OpContext& ctx = OpContext::serial());

struct Pool2dParams {
  int kernel_h = 2, kernel_w = 2;
  int stride_h = 2, stride_w = 2;
  int pad_h = 0, pad_w = 0;
  bool count_include_pad = false;  // for average pooling
};

/// Max pooling over [N,C,H,W].
Tensor max_pool2d(const Tensor& input, const Pool2dParams& p,
                  const OpContext& ctx = OpContext::serial());

/// Average pooling over [N,C,H,W].
Tensor avg_pool2d(const Tensor& input, const Pool2dParams& p,
                  const OpContext& ctx = OpContext::serial());

/// Global average pooling: [N,C,H,W] -> [N,C,1,1].
Tensor global_avg_pool(const Tensor& input,
                       const OpContext& ctx = OpContext::serial());

/// Nearest-neighbor spatial resize by integer scale: [N,C,H,W] -> [N,C,H*s,W*s].
Tensor resize_nearest(const Tensor& input, int scale,
                      const OpContext& ctx = OpContext::serial());

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// Batched matmul with broadcasting over leading dims: [..,M,K] x [..,K,N].
/// `a` may be stored f32/f16/bf16; rank-2 `b` additionally may be i8 with
/// per-column QuantMeta (axis 1), which routes through the quantized GEMM.
/// `out_dtype` selects the output storage (f32/f16/bf16); `act_absmax` is
/// the calibrated dynamic range of `a` for the i8 path (negative: measure).
Tensor matmul(const Tensor& a, const Tensor& b,
              const OpContext& ctx = OpContext::serial(),
              DType out_dtype = DType::kF32, float act_absmax = -1.0f);

/// GEMM: a [M,K] (optionally transposed), b [K,N] (optionally transposed),
/// plus an optional bias broadcast to [M,N] (see gemm_bias_broadcasts), plus
/// an optional activation fused into the write-back. Matches ONNX Gemm
/// (with act == kNone and alpha == beta == 1). Storage
/// dtypes as in matmul (i8 `b` carries QuantMeta on its output-channel
/// axis, i.e. axis 1, or 0 when trans_b).
Tensor gemm(const Tensor& a, const Tensor& b, const std::optional<Tensor>& bias,
            bool trans_a = false, bool trans_b = false,
            kernels::Activation act = kernels::Activation::kNone,
            const OpContext& ctx = OpContext::serial(),
            DType out_dtype = DType::kF32, float act_absmax = -1.0f);

/// True when a Gemm bias of shape `bias` broadcasts to the [M, N] output
/// under ONNX unidirectional broadcasting: rank <= 2 and each dim either 1
/// or the matching output dim ([N], [1,N], [M,1], [M,N], scalars).
bool gemm_bias_broadcasts(const Shape& bias, std::int64_t M, std::int64_t N);

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

Tensor relu(const Tensor& x);
Tensor leaky_relu(const Tensor& x, float alpha);
Tensor sigmoid(const Tensor& x);
Tensor silu(const Tensor& x);  // x * sigmoid(x), Yolo V5's activation
Tensor tanh_op(const Tensor& x);
Tensor gelu(const Tensor& x);  // erf-based, as in BERT
Tensor erf_op(const Tensor& x);
Tensor sqrt_op(const Tensor& x);
Tensor exp_op(const Tensor& x);
Tensor neg(const Tensor& x);
Tensor identity(const Tensor& x);

/// Binary ops with NumPy-style broadcasting.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div_op(const Tensor& a, const Tensor& b);
Tensor pow_op(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Normalization and reductions
// ---------------------------------------------------------------------------

/// Inference-mode batch normalization over channel dim 1 of [N,C,...].
Tensor batch_norm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                  const Tensor& mean, const Tensor& var, float epsilon = 1e-5f);

/// Layer normalization over the last dimension.
Tensor layer_norm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                  float epsilon = 1e-5f);

/// Softmax along `axis`.
Tensor softmax(const Tensor& x, int axis = -1);

/// Mean over the given axes (keepdims).
Tensor reduce_mean(const Tensor& x, const std::vector<int>& axes);

// ---------------------------------------------------------------------------
// Shape / data movement
// ---------------------------------------------------------------------------

/// Concatenation along `axis`. All inputs must agree on other dims.
Tensor concat(const std::vector<Tensor>& inputs, int axis);

/// Slice along one axis: elements [begin, end) with step 1.
Tensor slice(const Tensor& x, int axis, std::int64_t begin, std::int64_t end);

/// Strided slice along one axis (step >= 1), as used by Yolo's Focus layer.
Tensor strided_slice(const Tensor& x, int axis, std::int64_t begin,
                     std::int64_t end, std::int64_t step);

/// Gathers rows: indices select along `axis`. Indices are rounded floats.
Tensor gather(const Tensor& x, const Tensor& indices, int axis);

/// Permutes dimensions.
Tensor transpose(const Tensor& x, const std::vector<int>& perm);

/// Reshape with a single optional -1 wildcard dim.
Tensor reshape(const Tensor& x, const std::vector<std::int64_t>& new_dims);

/// Flattens dims [axis..] into one: matches ONNX Flatten.
Tensor flatten(const Tensor& x, int axis = 1);

/// Returns the shape of x as a 1-D float tensor (ONNX Shape; float-encoded
/// because our runtime is single-dtype — values are exact for dims < 2^24).
Tensor shape_of(const Tensor& x);

/// Embedding lookup: table [V, D], ids [..] -> [.., D].
Tensor embedding(const Tensor& table, const Tensor& ids);

}  // namespace ramiel

#include "obs/metrics.h"
#include "support/check.h"
#include "support/string_util.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/scratch.h"
#include "tensor/ops.h"

namespace ramiel {
namespace {

struct ConvMetrics {
  obs::Counter* vector = obs::registry().counter(
      "ramiel_kernel_conv_vector_total",
      "conv2d calls lowered to implicit GEMM (vector path)");
  obs::Counter* scalar = obs::registry().counter(
      "ramiel_kernel_conv_scalar_total",
      "conv2d calls executed by the direct scalar loops");
  obs::Counter* im2col_bytes = obs::registry().counter(
      "ramiel_kernel_im2col_scratch_bytes_total",
      "Bytes of im2col panel scratch requested by conv2d");
};

ConvMetrics& conv_metrics() {
  static ConvMetrics* m = new ConvMetrics();
  return *m;
}

struct ConvDims {
  std::int64_t N, C, H, W;    // input
  std::int64_t K, Cg, R, S;   // weight
  std::int64_t OH, OW;        // output
};

// Direct 7-loop convolution: the portable reference, and the production
// path for depthwise/grouped convs where the im2col matrix degenerates
// (Cg*R*S is tiny, so GEMM lowering only adds packing traffic).
void conv2d_direct(const ConvDims& d, const Conv2dParams& p, const float* in,
                   const float* wt, const float* bptr, float* dst,
                   const OpContext& ctx) {
  const std::int64_t kper_group = d.K / p.groups;
  dispatch_parallel_for(
      ctx, d.N * d.K, 2 * d.OH * d.OW * d.Cg * d.R * d.S,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t nk = lo; nk < hi; ++nk) {
          const std::int64_t n = nk / d.K;
          const std::int64_t k = nk % d.K;
          const std::int64_t g = k / kper_group;
          const std::int64_t c0 = g * d.Cg;
          for (std::int64_t oh = 0; oh < d.OH; ++oh) {
            for (std::int64_t ow = 0; ow < d.OW; ++ow) {
              float acc = bptr ? bptr[k] : 0.0f;
              for (std::int64_t c = 0; c < d.Cg; ++c) {
                for (std::int64_t r = 0; r < d.R; ++r) {
                  const std::int64_t ih =
                      oh * p.stride_h - p.pad_h + r * p.dilation_h;
                  if (ih < 0 || ih >= d.H) continue;
                  for (std::int64_t s = 0; s < d.S; ++s) {
                    const std::int64_t iw =
                        ow * p.stride_w - p.pad_w + s * p.dilation_w;
                    if (iw < 0 || iw >= d.W) continue;
                    acc += in[static_cast<std::size_t>(
                               ((n * d.C + c0 + c) * d.H + ih) * d.W + iw)] *
                           wt[static_cast<std::size_t>(
                               ((k * d.Cg + c) * d.R + r) * d.S + s)];
                  }
                }
              }
              dst[static_cast<std::size_t>(((n * d.K + k) * d.OH + oh) * d.OW +
                                           ow)] = acc;
            }
          }
        }
      });
  if (p.act != kernels::Activation::kNone) {
    kernels::apply_activation(p.act, dst, d.N * d.K * d.OH * d.OW);
  }
}

/// Writes the im2col matrix for one image: row (c, r, s), column
/// (oh, ow) — i.e. a (Cg*R*S) x (OH*OW) panel, zero where the receptive
/// field falls into padding. Row-major, so each GEMM B-panel pack reads it
/// sequentially. Rows are the parallel axis.
void im2col(const ConvDims& d, const Conv2dParams& p, const float* in,
            std::int64_t n, std::int64_t c0, float* col,
            const OpContext& ctx) {
  const std::int64_t rows = d.Cg * d.R * d.S;
  const std::int64_t cols = d.OH * d.OW;
  dispatch_parallel_for(ctx, rows, cols, [&](std::int64_t lo,
                                             std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t c = row / (d.R * d.S);
      const std::int64_t r = (row / d.S) % d.R;
      const std::int64_t s = row % d.S;
      const float* src = in + ((n * d.C + c0 + c) * d.H) * d.W;
      float* out_row = col + row * cols;
      for (std::int64_t oh = 0; oh < d.OH; ++oh) {
        const std::int64_t ih = oh * p.stride_h - p.pad_h + r * p.dilation_h;
        float* out = out_row + oh * d.OW;
        if (ih < 0 || ih >= d.H) {
          for (std::int64_t ow = 0; ow < d.OW; ++ow) out[ow] = 0.0f;
          continue;
        }
        const float* src_h = src + ih * d.W;
        for (std::int64_t ow = 0; ow < d.OW; ++ow) {
          const std::int64_t iw = ow * p.stride_w - p.pad_w + s * p.dilation_w;
          out[ow] = (iw < 0 || iw >= d.W) ? 0.0f : src_h[iw];
        }
      }
    }
  });
}

// Implicit GEMM: out[n, k, :] = act(W[k, :] * im2col(x_n) + bias[k]).
// A = weights [K x Cg*R*S] (already row-major contiguous; f32/f16/bf16
// widen in the panel packers, i8 routes through the quantized GEMM with the
// weights as the signed left operand), B = the im2col panel, C = the output
// image plane; the per-channel bias and activation ride the GEMM epilogue,
// so the pre-activation tensor never materializes.
void conv2d_im2col(const ConvDims& d, const Conv2dParams& p, const float* in,
                   const Tensor& weight, const float* bptr, void* dst,
                   float act_absmax, const OpContext& ctx) {
  const std::int64_t rows = d.Cg * d.R * d.S;
  const std::int64_t cols = d.OH * d.OW;
  conv_metrics().im2col_bytes->inc(
      static_cast<std::uint64_t>(rows * cols) * sizeof(float));
  kernels::KernelScratch col(static_cast<std::size_t>(rows * cols));

  kernels::Epilogue ep;
  ep.act = p.act;
  if (bptr != nullptr) {
    ep.bias = bptr;
    ep.bias_stride_m = 1;  // per output channel == per GEMM row
  }
  const std::size_t c_esz = dtype_size(p.out_dtype);
  auto* db = static_cast<std::uint8_t*>(dst);
  const QuantMeta* q = weight.quant();
  for (std::int64_t n = 0; n < d.N; ++n) {
    im2col(d, p, in, n, /*c0=*/0, col.data(), ctx);
    std::uint8_t* dstn = db + n * d.K * cols * c_esz;
    if (weight.dtype() == DType::kI8) {
      kernels::qgemm(d.K, cols, rows, weight.raw(), DType::kI8, rows, 1,
                     col.data(), DType::kF32, cols, 1, q->scales.data(),
                     q->sums.data(), dstn, p.out_dtype, cols, act_absmax, ep,
                     ctx);
    } else {
      kernels::sgemm_dt(d.K, cols, rows, weight.raw(), weight.dtype(), rows,
                        1, col.data(), DType::kF32, cols, 1, dstn, p.out_dtype,
                        cols, ep, ctx);
    }
  }
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight,
              const std::optional<Tensor>& bias, const Conv2dParams& p,
              const OpContext& ctx) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  RAMIEL_CHECK(is.rank() == 4, str_cat("conv2d input must be NCHW, got ",
                                       is.to_string()));
  RAMIEL_CHECK(ws.rank() == 4, str_cat("conv2d weight must be KCRS, got ",
                                       ws.to_string()));
  ConvDims d;
  d.N = is.dim(0), d.C = is.dim(1), d.H = is.dim(2), d.W = is.dim(3);
  d.K = ws.dim(0), d.Cg = ws.dim(1), d.R = ws.dim(2), d.S = ws.dim(3);
  RAMIEL_CHECK(p.stride_h >= 1 && p.stride_w >= 1 && p.dilation_h >= 1 &&
                   p.dilation_w >= 1 && d.R >= 1 && d.S >= 1,
               str_cat("conv2d stride, dilation and kernel must be >= 1, got "
                       "stride ", p.stride_h, "x", p.stride_w, ", dilation ",
                       p.dilation_h, "x", p.dilation_w, ", kernel ", d.R, "x",
                       d.S));
  RAMIEL_CHECK(p.groups >= 1 && d.C % p.groups == 0 && d.K % p.groups == 0,
               "conv2d group count must divide channels");
  RAMIEL_CHECK(d.Cg == d.C / p.groups,
               str_cat("conv2d weight channel dim ", d.Cg, " != C/groups = ",
                       d.C / p.groups));
  if (bias) {
    RAMIEL_CHECK(bias->shape().rank() == 1 && bias->shape().dim(0) == d.K,
                 "conv2d bias must be [K]");
  }
  d.OH = (d.H + 2 * p.pad_h - p.dilation_h * (d.R - 1) - 1) / p.stride_h + 1;
  d.OW = (d.W + 2 * p.pad_w - p.dilation_w * (d.S - 1) - 1) / p.stride_w + 1;
  RAMIEL_CHECK(d.OH > 0 && d.OW > 0, "conv2d output would be empty");

  Tensor out(Shape{d.N, d.K, d.OH, d.OW}, p.out_dtype);
  const float* bptr = bias ? bias->data().data() : nullptr;

  // A non-f32 input widens once up front: both paths read fp32 activations
  // (the im2col panel is fp32 regardless of input storage).
  RAMIEL_CHECK(input.dtype() != DType::kI8, "conv2d input cannot be i8");
  std::vector<float> in_up;
  const float* in;
  if (input.dtype() == DType::kF32) {
    in = input.data().data();
  } else {
    in_up.resize(static_cast<std::size_t>(input.numel()));
    convert_storage_to_f32(input.raw(), input.dtype(), in_up.data(),
                           in_up.size());
    in = in_up.data();
  }

  const bool quantized = weight.dtype() == DType::kI8;
  if (quantized) {
    const QuantMeta* q = weight.quant();
    RAMIEL_CHECK(q != nullptr && q->axis == 0 &&
                     static_cast<std::int64_t>(q->scales.size()) == d.K,
                 "conv2d: i8 weights need per-output-channel scales (axis 0)");
  }

  // Grouped/depthwise convs keep the direct loops (their im2col panels are
  // too skinny to amortize packing); dense convs lower to implicit GEMM on
  // the vector path.
  if (p.groups == 1 && kernels::active_path() == kernels::Path::kVector) {
    conv_metrics().vector->inc();
    float act_absmax = p.act_absmax;
    if (quantized && act_absmax < 0.0f) {
      // im2col panels hold input values and padding zeros, so the input's
      // range bounds every panel — one scan keeps the dynamic scale stable
      // across the batch.
      act_absmax = kernels::absmax(input.raw(), input.dtype(),
                                   static_cast<std::size_t>(input.numel()));
    }
    conv2d_im2col(d, p, in, weight, bptr, out.raw_mut(), act_absmax, ctx);
    return out;
  }

  conv_metrics().scalar->inc();
  // The direct path is the fp32 reference: widen/dequantize the weights and
  // stage a non-f32 output through an fp32 buffer. The alloc sink is
  // bypassed for the fp32 temporaries so they can never claim a planned
  // output slot.
  std::vector<float> wt_up;
  Tensor wt_f32;
  const float* wt;
  if (weight.dtype() == DType::kF32) {
    wt = weight.data().data();
  } else if (quantized) {
    AllocSink* prev = set_thread_alloc_sink(nullptr);
    wt_f32 = weight.dequantize();
    set_thread_alloc_sink(prev);
    wt = wt_f32.data().data();
  } else {
    wt_up.resize(static_cast<std::size_t>(weight.numel()));
    convert_storage_to_f32(weight.raw(), weight.dtype(), wt_up.data(),
                           wt_up.size());
    wt = wt_up.data();
  }
  if (p.out_dtype == DType::kF32) {
    conv2d_direct(d, p, in, wt, bptr, out.mutable_data().data(), ctx);
  } else {
    std::vector<float> dst_f32(static_cast<std::size_t>(out.numel()));
    conv2d_direct(d, p, in, wt, bptr, dst_f32.data(), ctx);
    convert_f32_to_storage(dst_f32.data(), out.raw_mut(), p.out_dtype,
                           dst_f32.size());
  }
  return out;
}

Tensor resize_nearest(const Tensor& input, int scale, const OpContext& ctx) {
  const Shape& is = input.shape();
  RAMIEL_CHECK(is.rank() == 4, "resize_nearest input must be NCHW");
  RAMIEL_CHECK(scale >= 1, "resize scale must be >= 1");
  const std::int64_t N = is.dim(0), C = is.dim(1), H = is.dim(2), W = is.dim(3);
  const std::int64_t OH = H * scale, OW = W * scale;
  Tensor out(Shape{N, C, OH, OW});
  auto in = input.data();
  auto dst = out.mutable_data();
  dispatch_parallel_for(ctx, N * C, OH * OW, [&](std::int64_t lo,
                                                 std::int64_t hi) {
    for (std::int64_t nc = lo; nc < hi; ++nc) {
      const float* src = in.data() + nc * H * W;
      float* d = dst.data() + nc * OH * OW;
      for (std::int64_t oh = 0; oh < OH; ++oh) {
        for (std::int64_t ow = 0; ow < OW; ++ow) {
          d[oh * OW + ow] = src[(oh / scale) * W + (ow / scale)];
        }
      }
    }
  });
  return out;
}

}  // namespace ramiel

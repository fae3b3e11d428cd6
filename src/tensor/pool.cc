#include <limits>

#include "support/check.h"
#include "support/string_util.h"
#include "tensor/ops.h"

namespace ramiel {
namespace {

struct PoolDims {
  std::int64_t N, C, H, W, OH, OW;
};

PoolDims pool_dims(const Shape& is, const Pool2dParams& p) {
  RAMIEL_CHECK(is.rank() == 4, "pooling input must be NCHW");
  RAMIEL_CHECK(p.kernel_h >= 1 && p.kernel_w >= 1 && p.stride_h >= 1 &&
                   p.stride_w >= 1,
               str_cat("pooling kernel and stride must be >= 1, got kernel ",
                       p.kernel_h, "x", p.kernel_w, ", stride ", p.stride_h,
                       "x", p.stride_w));
  PoolDims d{};
  d.N = is.dim(0);
  d.C = is.dim(1);
  d.H = is.dim(2);
  d.W = is.dim(3);
  d.OH = (d.H + 2 * p.pad_h - p.kernel_h) / p.stride_h + 1;
  d.OW = (d.W + 2 * p.pad_w - p.kernel_w) / p.stride_w + 1;
  RAMIEL_CHECK(d.OH > 0 && d.OW > 0, "pooling output would be empty");
  return d;
}

}  // namespace

Tensor max_pool2d(const Tensor& input, const Pool2dParams& p,
                  const OpContext& ctx) {
  const PoolDims d = pool_dims(input.shape(), p);
  Tensor out(Shape{d.N, d.C, d.OH, d.OW});
  auto in = input.data();
  auto dst = out.mutable_data();
  dispatch_parallel_for(ctx, d.N * d.C, d.OH * d.OW * p.kernel_h * p.kernel_w,
                        [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nc = lo; nc < hi; ++nc) {
      const float* src = in.data() + nc * d.H * d.W;
      float* o = dst.data() + nc * d.OH * d.OW;
      for (std::int64_t oh = 0; oh < d.OH; ++oh) {
        for (std::int64_t ow = 0; ow < d.OW; ++ow) {
          float best = -std::numeric_limits<float>::infinity();
          for (int r = 0; r < p.kernel_h; ++r) {
            const std::int64_t ih = oh * p.stride_h - p.pad_h + r;
            if (ih < 0 || ih >= d.H) continue;
            for (int s = 0; s < p.kernel_w; ++s) {
              const std::int64_t iw = ow * p.stride_w - p.pad_w + s;
              if (iw < 0 || iw >= d.W) continue;
              best = std::max(best, src[ih * d.W + iw]);
            }
          }
          o[oh * d.OW + ow] = best;
        }
      }
    }
  });
  return out;
}

Tensor avg_pool2d(const Tensor& input, const Pool2dParams& p,
                  const OpContext& ctx) {
  const PoolDims d = pool_dims(input.shape(), p);
  Tensor out(Shape{d.N, d.C, d.OH, d.OW});
  auto in = input.data();
  auto dst = out.mutable_data();
  dispatch_parallel_for(ctx, d.N * d.C, d.OH * d.OW * p.kernel_h * p.kernel_w,
                        [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nc = lo; nc < hi; ++nc) {
      const float* src = in.data() + nc * d.H * d.W;
      float* o = dst.data() + nc * d.OH * d.OW;
      for (std::int64_t oh = 0; oh < d.OH; ++oh) {
        for (std::int64_t ow = 0; ow < d.OW; ++ow) {
          float sum = 0.0f;
          int count = 0;
          for (int r = 0; r < p.kernel_h; ++r) {
            const std::int64_t ih = oh * p.stride_h - p.pad_h + r;
            if (ih < 0 || ih >= d.H) continue;
            for (int s = 0; s < p.kernel_w; ++s) {
              const std::int64_t iw = ow * p.stride_w - p.pad_w + s;
              if (iw < 0 || iw >= d.W) continue;
              sum += src[ih * d.W + iw];
              ++count;
            }
          }
          const int denom =
              p.count_include_pad ? p.kernel_h * p.kernel_w : std::max(count, 1);
          o[oh * d.OW + ow] = sum / static_cast<float>(denom);
        }
      }
    }
  });
  return out;
}

Tensor global_avg_pool(const Tensor& input, const OpContext& ctx) {
  const Shape& is = input.shape();
  RAMIEL_CHECK(is.rank() == 4, "global_avg_pool input must be NCHW");
  const std::int64_t N = is.dim(0), C = is.dim(1), HW = is.dim(2) * is.dim(3);
  Tensor out(Shape{N, C, 1, 1});
  auto in = input.data();
  auto dst = out.mutable_data();
  dispatch_parallel_for(ctx, N * C, HW, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nc = lo; nc < hi; ++nc) {
      const float* src = in.data() + nc * HW;
      float sum = 0.0f;
      for (std::int64_t i = 0; i < HW; ++i) sum += src[i];
      dst[static_cast<std::size_t>(nc)] = sum / static_cast<float>(HW);
    }
  });
  return out;
}

}  // namespace ramiel

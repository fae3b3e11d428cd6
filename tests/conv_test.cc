#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

using ramiel::testing::expect_tensors_close;

/// Straightforward reference convolution (independent implementation:
/// explicit 7-deep loop nest, no skipping tricks).
Tensor ref_conv2d(const Tensor& x, const Tensor& w,
                  const std::optional<Tensor>& bias, const Conv2dParams& p) {
  const auto& xs = x.shape();
  const auto& ws = w.shape();
  const std::int64_t N = xs.dim(0), C = xs.dim(1), H = xs.dim(2), W = xs.dim(3);
  const std::int64_t K = ws.dim(0), Cg = ws.dim(1), R = ws.dim(2), S = ws.dim(3);
  const std::int64_t OH =
      (H + 2 * p.pad_h - p.dilation_h * (R - 1) - 1) / p.stride_h + 1;
  const std::int64_t OW =
      (W + 2 * p.pad_w - p.dilation_w * (S - 1) - 1) / p.stride_w + 1;
  Tensor out = Tensor::zeros(Shape{N, K, OH, OW});
  auto xd = x.data();
  auto wd = w.data();
  auto od = out.mutable_data();
  const std::int64_t kpg = K / p.groups;
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t k = 0; k < K; ++k) {
      for (std::int64_t oh = 0; oh < OH; ++oh) {
        for (std::int64_t ow = 0; ow < OW; ++ow) {
          double acc = bias ? bias->at(k) : 0.0;
          for (std::int64_t c = 0; c < Cg; ++c) {
            for (std::int64_t r = 0; r < R; ++r) {
              for (std::int64_t s = 0; s < S; ++s) {
                const std::int64_t ih =
                    oh * p.stride_h - p.pad_h + r * p.dilation_h;
                const std::int64_t iw =
                    ow * p.stride_w - p.pad_w + s * p.dilation_w;
                if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
                const std::int64_t ci = (k / kpg) * Cg + c;
                acc += xd[static_cast<std::size_t>(((n * C + ci) * H + ih) * W +
                                                   iw)] *
                       wd[static_cast<std::size_t>(((k * Cg + c) * R + r) * S +
                                                   s)];
              }
            }
          }
          od[static_cast<std::size_t>(((n * K + k) * OH + oh) * OW + ow)] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  // 1x1 conv with weight 1 on a single channel.
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::full(Shape{1, 1, 1, 1}, 1.0f);
  Tensor out = conv2d(x, w, std::nullopt, Conv2dParams{});
  expect_tensors_close(out, x.reshaped(Shape{1, 1, 2, 2}));
}

TEST(Conv2d, RejectsStrideDilationOrKernelBelowOne) {
  Tensor x = Tensor::full(Shape{1, 1, 4, 4}, 1.0f);
  Tensor w = Tensor::full(Shape{1, 1, 1, 1}, 1.0f);
  Conv2dParams stride0;
  stride0.stride_w = 0;
  EXPECT_THROW(conv2d(x, w, std::nullopt, stride0), Error);
  Conv2dParams dilation0;
  dilation0.dilation_h = 0;
  EXPECT_THROW(conv2d(x, w, std::nullopt, dilation0), Error);
  EXPECT_THROW(conv2d(x, Tensor::zeros(Shape{1, 1, 0, 1}), std::nullopt,
                      Conv2dParams{}),
               Error);
}

TEST(Conv2d, KnownSmallCase) {
  // 2x2 average-style kernel (all 0.25) over a 3x3 input, valid padding.
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::full(Shape{1, 1, 2, 2}, 0.25f);
  Tensor out = conv2d(x, w, std::nullopt, Conv2dParams{});
  expect_tensors_close(out, Tensor(Shape{1, 1, 2, 2}, {3, 4, 6, 7}));
}

TEST(Conv2d, BiasIsAddedPerChannel) {
  Tensor x = Tensor::zeros(Shape{1, 1, 2, 2});
  Tensor w = Tensor::zeros(Shape{2, 1, 1, 1});
  Tensor bias = Tensor::vec({1.5f, -2.0f});
  Tensor out = conv2d(x, w, bias, Conv2dParams{});
  expect_tensors_close(
      out, Tensor(Shape{1, 2, 2, 2}, {1.5f, 1.5f, 1.5f, 1.5f, -2, -2, -2, -2}));
}

struct ConvCase {
  std::int64_t n, c, h, w, k;
  int kernel, stride, pad, dilation, groups;
  // gtest names each case by dumping its bytes; an explicit member in what
  // would be tail padding keeps those names the same in every build.
  int zero = 0;
};

class ConvReferenceSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvReferenceSweep, MatchesReference) {
  const ConvCase& tc = GetParam();
  Rng rng(99);
  Tensor x = Tensor::random(Shape{tc.n, tc.c, tc.h, tc.w}, rng);
  Tensor w = Tensor::random(
      Shape{tc.k, tc.c / tc.groups, tc.kernel, tc.kernel}, rng);
  Tensor bias = Tensor::random(Shape{tc.k}, rng);
  Conv2dParams p;
  p.stride_h = p.stride_w = tc.stride;
  p.pad_h = p.pad_w = tc.pad;
  p.dilation_h = p.dilation_w = tc.dilation;
  p.groups = tc.groups;
  expect_tensors_close(conv2d(x, w, bias, p), ref_conv2d(x, w, bias, p),
                       1e-4f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvReferenceSweep,
    ::testing::Values(
        ConvCase{1, 3, 8, 8, 4, 3, 1, 1, 1, 1},    // same-pad 3x3
        ConvCase{1, 3, 9, 9, 2, 3, 2, 1, 1, 1},    // strided
        ConvCase{2, 4, 6, 6, 4, 1, 1, 0, 1, 1},    // pointwise, batch 2
        ConvCase{1, 4, 8, 8, 4, 3, 1, 1, 1, 4},    // depthwise
        ConvCase{1, 6, 8, 8, 4, 3, 1, 1, 1, 2},    // grouped
        ConvCase{1, 2, 12, 12, 3, 5, 2, 2, 1, 1},  // 5x5 strided
        ConvCase{1, 3, 14, 14, 2, 7, 2, 3, 1, 1},  // 7x7 stem-style
        ConvCase{1, 2, 10, 10, 2, 3, 1, 2, 2, 1}));  // dilated

TEST(Conv2d, ParallelMatchesSerial) {
  Rng rng(7);
  Tensor x = Tensor::random(Shape{1, 8, 12, 12}, rng);
  Tensor w = Tensor::random(Shape{16, 8, 3, 3}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  Tensor serial = conv2d(x, w, std::nullopt, p);
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  Tensor parallel = conv2d(x, w, std::nullopt, p, ctx);
  expect_tensors_close(serial, parallel);
}

TEST(Conv2d, RejectsBadGroupConfig) {
  Tensor x = Tensor::zeros(Shape{1, 3, 4, 4});
  Tensor w = Tensor::zeros(Shape{2, 3, 3, 3});
  Conv2dParams p;
  p.groups = 2;  // 3 channels not divisible by 2
  EXPECT_THROW(conv2d(x, w, std::nullopt, p), Error);
}

TEST(Conv2d, RejectsWrongWeightChannels) {
  Tensor x = Tensor::zeros(Shape{1, 4, 4, 4});
  Tensor w = Tensor::zeros(Shape{2, 3, 3, 3});  // expects C/g == 4
  EXPECT_THROW(conv2d(x, w, std::nullopt, Conv2dParams{}), Error);
}

TEST(ResizeNearest, DoublesSpatialDims) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor out = resize_nearest(x, 2);
  expect_tensors_close(
      out, Tensor(Shape{1, 1, 4, 4},
                  {1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}));
}

TEST(ResizeNearest, ScaleOneIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::random(Shape{1, 2, 3, 3}, rng);
  expect_tensors_close(resize_nearest(x, 1), x);
}

}  // namespace
}  // namespace ramiel

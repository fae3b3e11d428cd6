#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "tensor/kernels/vmath.h"
#include "tensor/ops.h"

namespace ramiel {

Tensor batch_norm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                  const Tensor& mean, const Tensor& var, float epsilon) {
  const Shape& xs = x.shape();
  RAMIEL_CHECK(xs.rank() >= 2, "batch_norm input must have a channel dim");
  const std::int64_t C = xs.dim(1);
  RAMIEL_CHECK(scale.numel() == C && bias.numel() == C && mean.numel() == C &&
                   var.numel() == C,
               "batch_norm parameter size must equal channel count");
  std::int64_t inner = 1;
  for (int i = 2; i < xs.rank(); ++i) inner *= xs.dim(i);
  const std::int64_t N = xs.dim(0);

  Tensor out(xs);
  auto in = x.data();
  auto dst = out.mutable_data();
  auto s = scale.data();
  auto b = bias.data();
  auto m = mean.data();
  auto v = var.data();
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float inv = 1.0f / std::sqrt(v[static_cast<std::size_t>(c)] + epsilon);
      const float a = s[static_cast<std::size_t>(c)] * inv;
      const float d = b[static_cast<std::size_t>(c)] -
                      a * m[static_cast<std::size_t>(c)];
      const float* src = in.data() + (n * C + c) * inner;
      float* o = dst.data() + (n * C + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) o[i] = a * src[i] + d;
    }
  }
  return out;
}

Tensor layer_norm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                  float epsilon) {
  const Shape& xs = x.shape();
  RAMIEL_CHECK(xs.rank() >= 1, "layer_norm input must have rank >= 1");
  const std::int64_t D = xs.dim(-1);
  RAMIEL_CHECK(scale.numel() == D && bias.numel() == D,
               "layer_norm parameter size must equal last dim");
  Tensor out(xs);
  if (xs.numel() == 0) return out;
  const std::int64_t rows = xs.numel() / D;

  auto in = x.data();
  auto dst = out.mutable_data();
  auto s = scale.data();
  auto b = bias.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = in.data() + r * D;
    float* o = dst.data() + r * D;
    float mean = 0.0f;
    for (std::int64_t i = 0; i < D; ++i) mean += src[i];
    mean /= static_cast<float>(D);
    float var = 0.0f;
    for (std::int64_t i = 0; i < D; ++i) {
      const float d = src[i] - mean;
      var += d * d;
    }
    var /= static_cast<float>(D);
    const float inv = 1.0f / std::sqrt(var + epsilon);
    for (std::int64_t i = 0; i < D; ++i) {
      o[i] = (src[i] - mean) * inv * s[static_cast<std::size_t>(i)] +
             b[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

Tensor softmax(const Tensor& x, int axis) {
  const Shape& xs = x.shape();
  const int ax = xs.normalize_axis(axis);
  std::int64_t outer = 1, inner = 1;
  for (int i = 0; i < ax; ++i) outer *= xs.dim(i);
  for (int i = ax + 1; i < xs.rank(); ++i) inner *= xs.dim(i);
  const std::int64_t D = xs.dim(ax);

  Tensor out(xs);
  if (xs.numel() == 0) return out;
  auto in = x.data();
  auto dst = out.mutable_data();
  if (inner == 1) {
    kernels::vmath::softmax_rows(in.data(), dst.data(), outer, D);
    return out;
  }
  // Non-last axis: one softmax per column of D values `inner` apart, with
  // the same exp as the row kernel.
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      const float* src = in.data() + o * D * inner + i;
      float* d = dst.data() + o * D * inner + i;
      float mx = src[0];
      for (std::int64_t j = 1; j < D; ++j) mx = std::max(mx, src[j * inner]);
      float sum = 0.0f;
      for (std::int64_t j = 0; j < D; ++j) {
        float e = src[j * inner] - mx;
        kernels::vmath::exp(&e, &e, 1);
        d[j * inner] = e;
        sum += e;
      }
      const float inv = 1.0f / sum;
      for (std::int64_t j = 0; j < D; ++j) d[j * inner] *= inv;
    }
  }
  return out;
}

}  // namespace ramiel

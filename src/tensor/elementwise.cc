#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.h"
#include "support/string_util.h"
#include "tensor/kernels/elementwise_runs.h"
#include "tensor/kernels/vmath.h"
#include "tensor/ops.h"
#include "tensor/strided_loop.h"

namespace ramiel {
namespace {

// Statically dispatched: the functor inlines into the loop (the previous
// std::function indirection cost a call per element). The ops the run-loop
// tiers cover go through unary_run instead.
template <typename F>
Tensor unary(const Tensor& x, F f) {
  Tensor out(x.shape());
  auto in = x.data();
  auto dst = out.mutable_data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = f(in[i]);
  return out;
}

Tensor unary_run(const Tensor& x, kernels::ewise::UnaryRun run,
                 float alpha = 0.0f) {
  Tensor out(x.shape());
  run(x.data().data(), out.mutable_data().data(), x.numel(), alpha);
  return out;
}

/// Computes the broadcast result shape of two shapes (NumPy rules).
Shape broadcast_shape(const Shape& a, const Shape& b) {
  int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    RAMIEL_CHECK(da == db || da == 1 || db == 1,
                 str_cat("cannot broadcast ", a.to_string(), " with ",
                         b.to_string()));
    dims[static_cast<std::size_t>(rank - 1 - i)] = da == 1 ? db : da;
  }
  return Shape(std::move(dims));
}

// Broadcast binary op over the strided-run loop: the output is written
// sequentially, and `run` (a kernels::ewise::BinaryRun or a callable with
// its signature) computes each innermost run from the inputs' run starts and
// element strides there.
template <typename Run>
Tensor binary(const Tensor& a, const Tensor& b, Run run) {
  Shape os = broadcast_shape(a.shape(), b.shape());
  Tensor out(os);
  const int rank = os.rank();
  // Per output dim, each input's element stride (0 where it is broadcast).
  std::vector<std::array<std::int64_t, 2>> strides(
      static_cast<std::size_t>(rank), {0, 0});
  auto fill = [&](const Shape& s, std::size_t k) {
    const auto real = s.strides();
    for (int i = 0; i < s.rank(); ++i) {
      if (s.dim(i) == 1) continue;
      strides[static_cast<std::size_t>(rank - s.rank() + i)][k] =
          real[static_cast<std::size_t>(i)];
    }
  };
  fill(a.shape(), 0);
  fill(b.shape(), 1);
  const auto loop = strided::collapse(os.dims(), strides);
  const std::int64_t n = loop.run();
  // A one-element output collapses to rank 0, strides {0, 0}; every longer
  // run is contiguous in each operand not broadcast along it.
  const std::int64_t sa = n <= 1 ? 1 : loop.run_strides()[0];
  const std::int64_t sb = n <= 1 ? 1 : loop.run_strides()[1];
  RAMIEL_DCHECK((sa == 1 && (sb == 1 || sb == 0)) || (sa == 0 && sb == 1),
                "binary run form outside {1,1}, {0,1}, {1,0}");
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* o = out.mutable_data().data();
  strided::for_each_run(loop, [&](const std::array<std::int64_t, 2>& off) {
    run(pa + off[0], sa, pb + off[1], sb, o, n);
    o += n;
  });
  return out;
}

}  // namespace

Tensor relu(const Tensor& x) {
  return unary_run(x, kernels::ewise::active().relu);
}

Tensor leaky_relu(const Tensor& x, float alpha) {
  return unary_run(x, kernels::ewise::active().leaky_relu, alpha);
}

Tensor sigmoid(const Tensor& x) {
  return unary(x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor silu(const Tensor& x) {
  return unary(x, [](float v) { return v / (1.0f + std::exp(-v)); });
}

Tensor tanh_op(const Tensor& x) {
  return unary(x, [](float v) { return std::tanh(v); });
}

Tensor gelu(const Tensor& x) {
  // 0.5 v (1 + erf(v / sqrt 2)) a block at a time, each step over the whole
  // block so the run-loop tier and vmath use their vector lanes:
  // e = v * c, e = erf(e), e = 1 + e, o = 0.5 * v, o = o * e. Every element
  // gets the formula's operations in its order. A block reads its inputs
  // before it writes, so the output may be x's own buffer (the planner's
  // in-place slot).
  constexpr std::int64_t kBlock = 512;
  static constexpr float kRsqrt2 = 0.70710678f;
  static constexpr float kOne = 1.0f;
  static constexpr float kHalf = 0.5f;
  const kernels::ewise::Kernels& k = kernels::ewise::active();
  Tensor out(x.shape());
  const float* in = x.data().data();
  float* dst = out.mutable_data().data();
  const std::int64_t n = x.numel();
  float e[kBlock];
  for (std::int64_t base = 0; base < n; base += kBlock) {
    const std::int64_t m = std::min(kBlock, n - base);
    k.mul(in + base, 1, &kRsqrt2, 0, e, m);
    kernels::vmath::erf(e, e, m);
    k.add(&kOne, 0, e, 1, e, m);
    k.mul(&kHalf, 0, in + base, 1, dst + base, m);
    k.mul(dst + base, 1, e, 1, dst + base, m);
  }
  return out;
}

Tensor erf_op(const Tensor& x) {
  Tensor out(x.shape());
  kernels::vmath::erf(x.data().data(), out.mutable_data().data(), x.numel());
  return out;
}

Tensor sqrt_op(const Tensor& x) {
  return unary_run(x, kernels::ewise::active().sqrt);
}

Tensor exp_op(const Tensor& x) {
  Tensor out(x.shape());
  kernels::vmath::exp(x.data().data(), out.mutable_data().data(), x.numel());
  return out;
}

Tensor neg(const Tensor& x) {
  return unary_run(x, kernels::ewise::active().neg);
}

Tensor identity(const Tensor& x) { return x; }

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, kernels::ewise::active().add);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, kernels::ewise::active().sub);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, kernels::ewise::active().mul);
}

Tensor div_op(const Tensor& a, const Tensor& b) {
  return binary(a, b, kernels::ewise::active().div);
}

Tensor pow_op(const Tensor& a, const Tensor& b) {
  // A constant exponent of 2 (LayerNorm's variance) is a plain square:
  // correctly rounded, where powf may differ from it in the last bit.
  if (b.numel() == 1 && b.data()[0] == 2.0f) {
    return binary(a, b, kernels::ewise::active().square);
  }
  return binary(a, b,
                [](const float* x, std::int64_t sx, const float* y,
                   std::int64_t sy, float* o, std::int64_t n) {
                  for (std::int64_t i = 0; i < n; ++i) {
                    o[i] = std::pow(x[i * sx], y[i * sy]);
                  }
                });
}

}  // namespace ramiel

#include <array>
#include <cmath>

#include "support/check.h"
#include "support/string_util.h"
#include "tensor/kernels/vmath.h"
#include "tensor/ops.h"
#include "tensor/strided_loop.h"

namespace ramiel {
namespace {

// Statically dispatched: the functor inlines into the loop (the previous
// std::function indirection cost a call per element), letting the compiler
// vectorize cheap ops like relu/neg.
template <typename F>
Tensor unary(const Tensor& x, F f) {
  Tensor out(x.shape());
  auto in = x.data();
  auto dst = out.mutable_data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = f(in[i]);
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
// sequentially and each run's inner loop takes one of four forms, both
// inputs contiguous, either one a loop-invariant scalar, or strided.
template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, F f) {
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
  const std::int64_t sa = loop.run_strides()[0];
  const std::int64_t sb = loop.run_strides()[1];
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* o = out.mutable_data().data();
  strided::for_each_run(loop, [&](const std::array<std::int64_t, 2>& off) {
    const float* x = pa + off[0];
    const float* y = pb + off[1];
    if (sa == 1 && sb == 1) {
      for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i], y[i]);
    } else if (sa == 0 && sb == 1) {
      const float xv = *x;
      for (std::int64_t i = 0; i < n; ++i) o[i] = f(xv, y[i]);
    } else if (sa == 1 && sb == 0) {
      const float yv = *y;
      for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i], yv);
    } else {
      for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i * sa], y[i * sb]);
    }
    o += n;
  });
  return out;
}

}  // namespace

Tensor relu(const Tensor& x) {
  return unary(x, [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor leaky_relu(const Tensor& x, float alpha) {
  return unary(x, [alpha](float v) { return v > 0.0f ? v : alpha * v; });
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
  return unary(x, [](float v) {
    float e = v * 0.70710678f;
    kernels::vmath::erf(&e, &e, 1);
    return 0.5f * v * (1.0f + e);
  });
}

Tensor erf_op(const Tensor& x) {
  Tensor out(x.shape());
  kernels::vmath::erf(x.data().data(), out.mutable_data().data(), x.numel());
  return out;
}

Tensor sqrt_op(const Tensor& x) {
  return unary(x, [](float v) { return std::sqrt(v); });
}

Tensor exp_op(const Tensor& x) {
  Tensor out(x.shape());
  kernels::vmath::exp(x.data().data(), out.mutable_data().data(), x.numel());
  return out;
}

Tensor neg(const Tensor& x) {
  return unary(x, [](float v) { return -v; });
}

Tensor identity(const Tensor& x) { return x; }

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x * y; });
}

Tensor div_op(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x / y; });
}

Tensor pow_op(const Tensor& a, const Tensor& b) {
  // A constant exponent of 2 (LayerNorm's variance) is a plain square:
  // correctly rounded, where powf may differ from it in the last bit.
  if (b.numel() == 1 && b.data()[0] == 2.0f) {
    return binary(a, b, [](float x, float) { return x * x; });
  }
  return binary(a, b, [](float x, float y) { return std::pow(x, y); });
}

}  // namespace ramiel

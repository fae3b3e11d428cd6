// Portable tier of the element-wise run loops and tier dispatch (see the
// contract in elementwise_runs.h). These are the scalar loops every op ran
// before the AVX2 tier existed; elementwise_runs_avx2.cc must compute each
// element with the same operation.
#include "tensor/kernels/elementwise_runs.h"

#include <cmath>

#include "tensor/kernels/kernels.h"

namespace ramiel::kernels::ewise {
namespace {

struct Add {
  float operator()(float x, float y) const { return x + y; }
};
struct Sub {
  float operator()(float x, float y) const { return x - y; }
};
struct Mul {
  float operator()(float x, float y) const { return x * y; }
};
struct Div {
  float operator()(float x, float y) const { return x / y; }
};
// Pow with a scalar exponent of 2.
struct Square {
  float operator()(float x, float) const { return x * x; }
};

// The four run forms: both inputs contiguous, either one a loop-invariant
// scalar, or strided.
template <typename F>
void binary_run(const float* x, std::int64_t sx, const float* y,
                std::int64_t sy, float* o, std::int64_t n) {
  const F f;
  if (sx == 1 && sy == 1) {
    for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i], y[i]);
  } else if (sx == 0) {
    const float xv = *x;
    for (std::int64_t i = 0; i < n; ++i) o[i] = f(xv, y[i]);
  } else {
    const float yv = *y;
    for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i], yv);
  }
}

struct Relu {
  float operator()(float v, float) const { return v > 0.0f ? v : 0.0f; }
};
struct LeakyRelu {
  float operator()(float v, float alpha) const {
    return v > 0.0f ? v : alpha * v;
  }
};
struct Neg {
  float operator()(float v, float) const { return -v; }
};
struct Sqrt {
  float operator()(float v, float) const { return std::sqrt(v); }
};

template <typename F>
void unary_run(const float* x, float* o, std::int64_t n, float alpha) {
  const F f;
  for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i], alpha);
}

void row_means(const float* x, float* o, std::int64_t rows, std::int64_t d,
               float inv) {
  for (std::int64_t r = 0; r < rows; ++r, x += d) {
    float acc = 0.0f;
    for (std::int64_t i = 0; i < d; ++i) acc += x[i];
    o[r] = acc * inv;
  }
}

constexpr Kernels kPortable{
    &binary_run<Add>, &binary_run<Sub>, &binary_run<Mul>, &binary_run<Div>,
    &binary_run<Square>, &unary_run<Relu>, &unary_run<LeakyRelu>,
    &unary_run<Neg>, &unary_run<Sqrt>, &row_means};

}  // namespace

const Kernels& active() {
  if (active_tier(Gemm::kF32) >= Tier::kAvx2) {
    static const Kernels* avx2 = detail::avx2_kernels();
    if (avx2 != nullptr) return *avx2;
  }
  return kPortable;
}

}  // namespace ramiel::kernels::ewise

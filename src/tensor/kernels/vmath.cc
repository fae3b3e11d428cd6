// Portable vmath tier and tier dispatch. Every function here mirrors its
// AVX2 counterpart in vmath_avx2.cc operation for operation (see the
// contract in vmath.h); a change to one must be made to the other.
#include "tensor/kernels/vmath.h"
#include "tensor/kernels/vmath_tiers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "tensor/kernels/kernels.h"

namespace ramiel::kernels::vmath {
namespace {

using namespace detail;

float erf1(float x) {
  if (std::isnan(x)) return x + x;
  const float ax = std::fabs(x);
  const int region = (ax >= kErfBound[0]) + (ax >= kErfBound[1]) +
                     (ax >= kErfBound[2]);
  const float u = region == 0 ? x * x
                              : std::min(ax, kErfCap) - kErfCenter[region];
  float p = kErfPoly[kErfTerms - 1][region];
  for (int k = kErfTerms - 2; k >= 0; --k) {
    p = std::fmaf(p, u, kErfPoly[k][region]);
  }
  return region == 0 ? std::fmaf(x, p, x) : std::copysign(p, x);
}

float exp1(float x) {
  if (std::isnan(x)) return x + x;
  const float xc = std::min(std::max(x, kExpMin), kExpMax);
  const float z = std::fmaf(xc, kLog2e, kShifter);
  const float n = z - kShifter;
  float r = std::fmaf(-n, kLn2Hi, xc);
  r = std::fmaf(-n, kLn2Lo, r);
  float p = kExpPoly[kExpTerms - 1];
  for (int k = kExpTerms - 2; k >= 0; --k) p = std::fmaf(p, r, kExpPoly[k]);
  const std::int32_t ni =
      std::bit_cast<std::int32_t>(z) - std::bit_cast<std::int32_t>(kShifter);
  const std::int32_t n1 = ni >> 1;
  const std::int32_t n2 = ni - n1;
  const float s1 = std::bit_cast<float>((n1 + 127) << 23);
  const float s2 = std::bit_cast<float>((n2 + 127) << 23);
  return p * s1 * s2;
}

void erf_portable(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = erf1(x[i]);
}

void exp_portable(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = exp1(x[i]);
}

void softmax_rows_portable(const float* x, float* y, std::int64_t rows,
                           std::int64_t d) {
  for (std::int64_t r = 0; r < rows; ++r, x += d, y += d) {
    float m = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < d; ++j) m = std::max(m, x[j]);
    float lane[8] = {};
    for (std::int64_t j = 0; j < d; ++j) {
      y[j] = exp1(x[j] - m);
      lane[j % 8] += y[j];
    }
    const float sum = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                      ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    if (std::isnan(sum)) {
      std::fill(y, y + d, std::numeric_limits<float>::quiet_NaN());
      continue;
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < d; ++j) y[j] *= inv;
  }
}

constexpr Kernels kPortable{&erf_portable, &exp_portable,
                            &softmax_rows_portable};

const Kernels& active() {
  if (active_tier(Gemm::kF32) >= Tier::kAvx2) {
    static const Kernels* avx2 = avx2_kernels();
    if (avx2 != nullptr) return *avx2;
  }
  return kPortable;
}

}  // namespace

void erf(const float* x, float* y, std::int64_t n) { active().erf(x, y, n); }

void exp(const float* x, float* y, std::int64_t n) { active().exp(x, y, n); }

void softmax_rows(const float* x, float* y, std::int64_t rows,
                  std::int64_t d) {
  active().softmax_rows(x, y, rows, d);
}

}  // namespace ramiel::kernels::vmath

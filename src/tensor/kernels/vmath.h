// Vector math for the transcendental element-wise ops: array erf and exp
// (Erf, Gelu, Exp) and a last-axis softmax row kernel (Softmax).
//
// One numeric definition (constants and tables in vmath_tiers.h), two tiers
// that produce the same bits:
//   - AVX2+FMA (vmath_avx2.cc, built with -mavx2 -mfma), used when the
//     CPUID probe finds AVX2+FMA and the kernel path is vector;
//   - portable (vmath.cc): the same operations in the same order one lane
//     at a time, std::fmaf for every fused multiply-add. It runs on hosts
//     without AVX2+FMA and under RAMIEL_KERNEL=scalar.
// Both TUs build with -ffp-contract=off, so the compiler cannot fuse a
// multiply and an add that the definition keeps separate.
//
// Contract:
//   - Each element's erf/exp result depends only on its input value. A tail
//     shorter than 8 runs through the same lanes from a padded buffer, so
//     results never depend on n, offset or alignment, and every executor,
//     the arena and the sequential oracle agree bit for bit. `y` may be `x`.
//   - erf: <= 2 ulp from (float)std::erf((double)x) for every finite float.
//     ±0 keeps its sign, ±inf -> ±1, NaN -> NaN (x + x, the input quieted).
//   - exp: <= 1 ulp from (float)std::exp((double)x), subnormal results
//     included. x above ~88.72 -> +inf; x below ~-103.97 and -inf -> +0;
//     NaN -> NaN (x + x).
//   - softmax_rows, per row of d contiguous values: m = the row max;
//     y[j] = exp(x[j] - m) is stored while the sum runs in 8 lanes (element
//     j feeds lane j % 8), reduced by the fixed tree
//     ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)); then every y[j] is
//     multiplied by 1 / sum. Relative error <= 1e-5 against a
//     double-precision softmax for outputs >= 1e-30; rows sum to 1 within
//     1e-6. A NaN or +inf anywhere in a row (or a row of only -inf) makes
//     the whole row the default quiet NaN.
#pragma once

#include <cstdint>

namespace ramiel::kernels::vmath {

void erf(const float* x, float* y, std::int64_t n);
void exp(const float* x, float* y, std::int64_t n);
void softmax_rows(const float* x, float* y, std::int64_t rows,
                  std::int64_t d);

}  // namespace ramiel::kernels::vmath

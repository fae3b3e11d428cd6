// The numeric definition the two vmath tiers share (see vmath.h): the
// constants and coefficient tables both tiers read, and the entry-point
// table of the AVX2 tier. Internal to src/tensor/kernels/.
#pragma once

#include <cstdint>

namespace ramiel::kernels::vmath::detail {

// exp: x = n ln2 + r with n = round(x log2e) (the shifter trick), |r| <=
// ln2/2 via a two-constant Cody-Waite split (kLn2Hi has 12 trailing zero
// bits, so n * kLn2Hi is exact); e^r ~= sum kExpPoly[k] r^k by Horner;
// then two exact-exponent multiplies by 2^(n/2) and 2^(n - n/2), so a
// subnormal or overflowing result is rounded exactly once.
inline constexpr float kExpMin = -104.0f;  // exp(-104) rounds to +0
inline constexpr float kExpMax = 89.0f;    // exp(89) overflows to +inf
inline constexpr float kLog2e = 0x1.715476p+0f;
inline constexpr float kShifter = 0x1.8p23f;
inline constexpr float kLn2Hi = 0x1.62ep-1f;
inline constexpr float kLn2Lo = 0x1.0bfbe8p-15f;
inline constexpr int kExpTerms = 7;
inline constexpr float kExpPoly[kExpTerms] = {
    0x1p+0f,         0x1p+0f,         0x1p-1f,         0x1.55548cp-3f,
    0x1.5554e4p-5f,  0x1.123d02p-7f,  0x1.6d514ap-10f,
};

// erf: four regions by |x|, picked per lane.
//   0: |x| < 1         erf = x + x * P0(x^2)          (degree 7 in x^2)
//   1: [1, 2.5)        erf = ±P1(|x| - kErfCenter[1])  (degree 10)
//   2: [2.5, 3.92)     erf = ±P2(|x| - kErfCenter[2])  (degree 10)
//   3: >= 3.92         erf = ±1 (P3 == 1; |x| is capped at kErfCap first)
// The centers sit where erf is within 0.005 ulp of a float, so the constant
// term loses nothing to rounding. Coefficients are near-minimax fits with
// each coefficient rounded to float and the higher ones refit.
// kErfPoly[k][region] holds the degree-k coefficient: each row is one
// 8-lane table for _mm256_permutevar8x32_ps (lanes 4..7 unused).
inline constexpr float kErfBound[3] = {1.0f, 2.5f, 3.92f};
inline constexpr float kErfCap = 4.0f;
inline constexpr float kErfCenter[8] = {0.0f, 0x1.c9cp+0f, 0x1.96a148p+1f,
                                        0.0f, 0.0f,        0.0f,
                                        0.0f, 0.0f};
inline constexpr int kErfTerms = 11;
inline constexpr float kErfPoly[kErfTerms][8] = {
    {0x1.06eba8p-3f, 0x1.fa239p-1f, 0x1.ffff14p-1f, 1.0f},
    {-0x1.812744p-2f, 0x1.79d474p-5f, 0x1.87ef9ep-15f, 0.0f},
    {0x1.ce2eap-4f, -0x1.51cbb8p-4f, -0x1.374f6p-13f, 0.0f},
    {-0x1.b821e6p-6f, 0x1.53b3a2p-4f, 0x1.395bfap-12f, 0.0f},
    {0x1.55dcc6p-8f, -0x1.7e3cecp-5f, -0x1.bd9a74p-12f, 0.0f},
    {-0x1.b99eb6p-11f, 0x1.162bcep-7f, 0x1.d7bd2ap-12f, 0.0f},
    {0x1.c77348p-14f, 0x1.e50aeep-8f, -0x1.7e211p-12f, 0.0f},
    {-0x1.1fd45cp-17f, -0x1.7b830cp-8f, 0x1.da2a1ap-13f, 0.0f},
    {0.0f, 0x1.edbee2p-11f, -0x1.9be00ap-14f, 0.0f},
    {0.0f, 0x1.80c41ep-11f, 0x1.4ec64cp-16f, 0.0f},
    {0.0f, -0x1.628816p-12f, 0x1.e504f6p-20f, 0.0f},
};

/// One tier's entry points (same signatures as the public functions).
struct Kernels {
  void (*erf)(const float* x, float* y, std::int64_t n);
  void (*exp)(const float* x, float* y, std::int64_t n);
  void (*softmax_rows)(const float* x, float* y, std::int64_t rows,
                       std::int64_t d);
};

/// The AVX2+FMA tier, or null where the compiler cannot emit AVX2. Only
/// ever called after the CPUID probe succeeds.
const Kernels* avx2_kernels();

}  // namespace ramiel::kernels::vmath::detail

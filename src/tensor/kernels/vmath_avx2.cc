// AVX2+FMA vmath tier. This TU is compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt) and must contain nothing that runs on hosts
// without those features: the only exported symbol is the table the
// dispatcher reads after its CPUID probe succeeds, and it instantiates no
// std:: algorithm templates, whose AVX2 copies the linker could pick for
// other TUs. Each function mirrors its portable counterpart in vmath.cc
// operation for operation.
#include "tensor/kernels/vmath.h"
#include "tensor/kernels/vmath_tiers.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace ramiel::kernels::vmath {
namespace {

using namespace detail;

inline __m256 quiet_nans(__m256 x, __m256 y) {
  return _mm256_blendv_ps(y, _mm256_add_ps(x, x),
                          _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m256 erf8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign, x);
  const __m256 m1 =
      _mm256_cmp_ps(ax, _mm256_set1_ps(kErfBound[0]), _CMP_GE_OQ);
  const __m256 m2 =
      _mm256_cmp_ps(ax, _mm256_set1_ps(kErfBound[1]), _CMP_GE_OQ);
  const __m256 m3 =
      _mm256_cmp_ps(ax, _mm256_set1_ps(kErfBound[2]), _CMP_GE_OQ);
  // Each mask lane is 0 or -1, so 0 - m1 - m2 - m3 counts the bounds passed.
  const __m256i region = _mm256_sub_epi32(
      _mm256_sub_epi32(
          _mm256_sub_epi32(_mm256_setzero_si256(), _mm256_castps_si256(m1)),
          _mm256_castps_si256(m2)),
      _mm256_castps_si256(m3));
  auto table = [&](const float* row) {
    return _mm256_permutevar8x32_ps(_mm256_loadu_ps(row), region);
  };
  const __m256 t = _mm256_sub_ps(_mm256_min_ps(ax, _mm256_set1_ps(kErfCap)),
                                 table(kErfCenter));
  const __m256 u = _mm256_blendv_ps(_mm256_mul_ps(x, x), t, m1);
  __m256 p = table(kErfPoly[kErfTerms - 1]);
  for (int k = kErfTerms - 2; k >= 0; --k) {
    p = _mm256_fmadd_ps(p, u, table(kErfPoly[k]));
  }
  const __m256 small = _mm256_fmadd_ps(x, p, x);
  const __m256 large = _mm256_or_ps(p, _mm256_and_ps(sign, x));
  return quiet_nans(x, _mm256_blendv_ps(small, large, m1));
}

inline __m256 exp8(__m256 x) {
  const __m256 shifter = _mm256_set1_ps(kShifter);
  const __m256 xc = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpMin)),
                                  _mm256_set1_ps(kExpMax));
  const __m256 z = _mm256_fmadd_ps(xc, _mm256_set1_ps(kLog2e), shifter);
  const __m256 n = _mm256_sub_ps(z, shifter);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), xc);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpPoly[kExpTerms - 1]);
  for (int k = kExpTerms - 2; k >= 0; --k) {
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[k]));
  }
  const __m256i ni = _mm256_sub_epi32(_mm256_castps_si256(z),
                                      _mm256_castps_si256(shifter));
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  const __m256i n2 = _mm256_sub_epi32(ni, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n2, bias), 23));
  return quiet_nans(x, _mm256_mul_ps(_mm256_mul_ps(p, s1), s2));
}

// Applies f to n values, 8 at a time; the tail runs through a padded buffer
// so every element sees the same lanes as in a full vector.
template <typename F>
inline void map8(const float* x, float* y, std::int64_t n, F f) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, f(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const auto tail = static_cast<std::size_t>(n - i);
    alignas(32) float buf[8] = {};
    std::memcpy(buf, x + i, tail * sizeof(float));
    _mm256_store_ps(buf, f(_mm256_load_ps(buf)));
    std::memcpy(y + i, buf, tail * sizeof(float));
  }
}

void erf_avx2(const float* x, float* y, std::int64_t n) { map8(x, y, n, erf8); }

void exp_avx2(const float* x, float* y, std::int64_t n) { map8(x, y, n, exp8); }

// Lane sum in the contract's fixed tree.
inline float lane_sum(__m256 v) {
  const __m128 h = _mm_add_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));  // l0+l4 ..
  const __m128 q = _mm_add_ps(h, _mm_movehl_ps(h, h));  // (l0+l4)+(l2+l6) ..
  return _mm_cvtss_f32(_mm_add_ss(q, _mm_movehdup_ps(q)));
}

inline float lane_max(__m256 v) {
  const __m128 h = _mm_max_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
  const __m128 q = _mm_max_ps(h, _mm_movehl_ps(h, h));
  return _mm_cvtss_f32(_mm_max_ss(q, _mm_movehdup_ps(q)));
}

void softmax_rows_avx2(const float* x, float* y, std::int64_t rows,
                       std::int64_t d) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const std::int64_t full = d - d % 8;
  const auto tail = static_cast<std::size_t>(d - full);
  for (std::int64_t r = 0; r < rows; ++r, x += d, y += d) {
    // Padding with -inf leaves the max alone and adds exp(-inf) = +0.
    alignas(32) float buf[8] = {kNegInf, kNegInf, kNegInf, kNegInf,
                                kNegInf, kNegInf, kNegInf, kNegInf};
    std::memcpy(buf, x + full, tail * sizeof(float));
    __m256 vmax = _mm256_load_ps(buf);
    for (std::int64_t j = 0; j < full; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + j));
    }
    const __m256 m = _mm256_set1_ps(lane_max(vmax));
    __m256 acc = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < full; j += 8) {
      const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(x + j), m));
      _mm256_storeu_ps(y + j, e);
      acc = _mm256_add_ps(acc, e);
    }
    if (tail != 0) {
      const __m256 e = exp8(_mm256_sub_ps(_mm256_load_ps(buf), m));
      acc = _mm256_add_ps(acc, e);
      _mm256_store_ps(buf, e);
      std::memcpy(y + full, buf, tail * sizeof(float));
    }
    const float sum = lane_sum(acc);
    if (sum != sum) {
      for (std::int64_t j = 0; j < d; ++j) y[j] = kNaN;
      continue;
    }
    const __m256 inv = _mm256_set1_ps(1.0f / sum);
    for (std::int64_t j = 0; j < full; j += 8) {
      _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), inv));
    }
    for (std::int64_t j = full; j < d; ++j) y[j] *= 1.0f / sum;
  }
}

constexpr Kernels kAvx2{&erf_avx2, &exp_avx2, &softmax_rows_avx2};

}  // namespace

const Kernels* detail::avx2_kernels() { return &kAvx2; }

}  // namespace ramiel::kernels::vmath

#else  // non-x86 target or compiler without AVX2 codegen

namespace ramiel::kernels::vmath {

const detail::Kernels* detail::avx2_kernels() { return nullptr; }

}  // namespace ramiel::kernels::vmath

#endif

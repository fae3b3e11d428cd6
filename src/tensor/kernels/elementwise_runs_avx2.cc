// AVX2 tier of the element-wise run loops. This TU is compiled with -mavx2
// -ffp-contract=off and without -mfma (see src/tensor/CMakeLists.txt), so
// no multiply and add can be fused, and it must contain nothing that runs on
// hosts without AVX2: the only exported symbol is the table the dispatcher
// reads after its CPUID probe succeeds, and it instantiates no std::
// templates, whose AVX2 copies the linker could pick for other TUs. Each
// element gets the operation its portable loop in elementwise_runs.cc
// applies (contract in elementwise_runs.h).
#include "tensor/kernels/elementwise_runs.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace ramiel::kernels::ewise {
namespace {

// x[0], x[s], ..., x[(m - 1) s] in lanes 0..m-1 (m <= 8), +0 in the rest;
// s is 1, or 0 for a broadcast operand. Every tail goes through here, so a
// tail sees the same operation as a full vector.
inline __m256 load_strided(const float* x, std::int64_t s, std::int64_t m) {
  alignas(32) float buf[8] = {};
  for (std::int64_t k = 0; k < m; ++k) buf[k] = x[k * s];
  return _mm256_load_ps(buf);
}

// Stores lanes 0..m-1 of v to o (m <= 8).
inline void store_first(float* o, __m256 v, std::int64_t m) {
  alignas(32) float buf[8];
  _mm256_store_ps(buf, v);
  std::memcpy(o, buf, static_cast<std::size_t>(m) * sizeof(float));
}

struct Add {
  static __m256 f(__m256 x, __m256 y) { return _mm256_add_ps(x, y); }
};
struct Sub {
  static __m256 f(__m256 x, __m256 y) { return _mm256_sub_ps(x, y); }
};
struct Mul {
  static __m256 f(__m256 x, __m256 y) { return _mm256_mul_ps(x, y); }
};
struct Div {
  static __m256 f(__m256 x, __m256 y) { return _mm256_div_ps(x, y); }
};
struct Square {
  static __m256 f(__m256 x, __m256) { return _mm256_mul_ps(x, x); }
};

// The portable tier's three run forms, 8 elements per step; each step loads
// its operands before it stores, so o may equal x or y.
template <typename Op>
void binary_run(const float* x, std::int64_t sx, const float* y,
                std::int64_t sy, float* o, std::int64_t n) {
  std::int64_t i = 0;
  if (sx == 1 && sy == 1) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          o + i, Op::f(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
  } else if (sx == 0) {
    const __m256 xv = _mm256_set1_ps(*x);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(o + i, Op::f(xv, _mm256_loadu_ps(y + i)));
    }
  } else {
    const __m256 yv = _mm256_set1_ps(*y);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(o + i, Op::f(_mm256_loadu_ps(x + i), yv));
    }
  }
  if (i < n) {
    store_first(o + i,
                Op::f(load_strided(x + i * sx, sx, n - i),
                      load_strided(y + i * sy, sy, n - i)),
                n - i);
  }
}

// max_ps(v, 0) returns its second operand unless v > 0: +0 for NaN and -0,
// as v > 0 ? v : 0 does.
struct Relu {
  static __m256 f(__m256 v, __m256) {
    return _mm256_max_ps(v, _mm256_setzero_ps());
  }
};
struct LeakyRelu {
  static __m256 f(__m256 v, __m256 alpha) {
    const __m256 pos = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
    return _mm256_blendv_ps(_mm256_mul_ps(alpha, v), v, pos);
  }
};
struct Neg {
  static __m256 f(__m256 v, __m256) {
    return _mm256_xor_ps(v, _mm256_set1_ps(-0.0f));
  }
};
struct Sqrt {
  static __m256 f(__m256 v, __m256) { return _mm256_sqrt_ps(v); }
};

template <typename Op>
void unary_run(const float* x, float* o, std::int64_t n, float alpha) {
  const __m256 a = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, Op::f(_mm256_loadu_ps(x + i), a));
  }
  if (i < n) {
    store_first(o + i, Op::f(load_strided(x + i, 1, n - i), a), n - i);
  }
}

// In place: r[k] lane j becomes the old r[j] lane k.
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// One lane per row: a block of 8 rows reads 8x8 tiles and transposes them,
// so lane k adds row k's columns j..j+7 one at a time, in order. Leftover
// columns and a final block of fewer than 8 rows load one column at a time
// across the rows.
void row_means(const float* x, float* o, std::int64_t rows, std::int64_t d,
               float inv) {
  const __m256 scale = _mm256_set1_ps(inv);
  for (std::int64_t r = 0; r < rows; r += 8) {
    const float* row = x + r * d;
    const std::int64_t m = rows - r < 8 ? rows - r : 8;
    __m256 acc = _mm256_setzero_ps();
    std::int64_t j = 0;
    if (m == 8) {
      for (; j + 8 <= d; j += 8) {
        __m256 t[8];
        for (int k = 0; k < 8; ++k) t[k] = _mm256_loadu_ps(row + k * d + j);
        transpose8(t);
        for (int k = 0; k < 8; ++k) acc = _mm256_add_ps(acc, t[k]);
      }
    }
    for (; j < d; ++j) acc = _mm256_add_ps(acc, load_strided(row + j, d, m));
    store_first(o + r, _mm256_mul_ps(acc, scale), m);
  }
}

constexpr Kernels kAvx2{
    &binary_run<Add>, &binary_run<Sub>, &binary_run<Mul>, &binary_run<Div>,
    &binary_run<Square>, &unary_run<Relu>, &unary_run<LeakyRelu>,
    &unary_run<Neg>, &unary_run<Sqrt>, &row_means};

}  // namespace

const Kernels* detail::avx2_kernels() { return &kAvx2; }

}  // namespace ramiel::kernels::ewise

#else  // non-x86 target or compiler without AVX2 codegen

namespace ramiel::kernels::ewise {

const Kernels* detail::avx2_kernels() { return nullptr; }

}  // namespace ramiel::kernels::ewise

#endif

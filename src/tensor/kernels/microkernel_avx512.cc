// AVX-512F pair microkernel: a 6x32 register tile over two adjacent packed
// NR = 16 B panels. This TU is compiled with -mavx512f (see
// src/tensor/CMakeLists.txt) and must contain nothing that runs on hosts
// without it: the only exported symbol is a function pointer the dispatcher
// reads *after* its CPUID probe succeeds.
//
// Every output element is the same k-ordered FMA chain from +0.0f as in the
// AVX2 6x16 kernel, followed by the same write-back (see TileWriteback), so
// a pair tile equals the two AVX2 tiles over the same panels bit for bit.
#include "tensor/kernels/microkernel.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

namespace ramiel::kernels {
namespace {

// Folds one row's two 16-lane accumulators into C, in the AVX2 kernel's
// operation order (including its `0 + acc` of a first-and-last block, which
// turns an underflowed -0.0 into +0.0).
inline void store_row(float* c, __m512 v0, __m512 v1, const TileWriteback& wb,
                      __m512 b0, __m512 b1) {
  const __m512 zero = _mm512_setzero_ps();
  if (!wb.first) {
    v0 = _mm512_add_ps(_mm512_loadu_ps(c), v0);
    v1 = _mm512_add_ps(_mm512_loadu_ps(c + kNR), v1);
  } else if (wb.last) {
    v0 = _mm512_add_ps(zero, v0);
    v1 = _mm512_add_ps(zero, v1);
  }
  if (wb.last) {
    v0 = _mm512_add_ps(v0, b0);
    v1 = _mm512_add_ps(v1, b1);
    if (wb.relu) {
      // As vmaxps on ymm: the second operand for NaN and for +-0 pairs.
      // (The all-lanes maskz form is _mm512_max_ps without its undefined
      // pass-through, which GCC 12 warns about.)
      v0 = _mm512_maskz_max_ps(0xFFFF, v0, zero);
      v1 = _mm512_maskz_max_ps(0xFFFF, v1, zero);
    }
  }
  _mm512_storeu_ps(c, v0);
  _mm512_storeu_ps(c + kNR, v1);
}

// 6x32 register tile: one zmm accumulator per row per panel.
void ukr_avx512_pair(std::int64_t kc, const float* a, std::int64_t a_rs,
                     std::int64_t a_cs, const float* b_panel, float* c,
                     std::int64_t ldc, const TileWriteback& wb) {
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();

  const float* a0 = a;
  const float* a3 = a + 3 * a_rs;
  const float* p0 = b_panel;            // columns 0-15
  const float* p1 = b_panel + kc * kNR;  // columns 16-31

  // One k step: one 16-float load from each panel + 6 A broadcasts feed 12
  // FMAs. Unrolled by 4 like the AVX2 kernel.
#define RAMIEL_UKR_STEP(K)                                 \
  do {                                                     \
    const __m512 b0 = _mm512_loadu_ps(p0 + (K) * kNR);     \
    const __m512 b1 = _mm512_loadu_ps(p1 + (K) * kNR);     \
    __m512 av = _mm512_set1_ps(*a0);                       \
    c00 = _mm512_fmadd_ps(av, b0, c00);                    \
    c01 = _mm512_fmadd_ps(av, b1, c01);                    \
    av = _mm512_set1_ps(a0[a_rs]);                         \
    c10 = _mm512_fmadd_ps(av, b0, c10);                    \
    c11 = _mm512_fmadd_ps(av, b1, c11);                    \
    av = _mm512_set1_ps(a0[2 * a_rs]);                     \
    c20 = _mm512_fmadd_ps(av, b0, c20);                    \
    c21 = _mm512_fmadd_ps(av, b1, c21);                    \
    av = _mm512_set1_ps(*a3);                              \
    c30 = _mm512_fmadd_ps(av, b0, c30);                    \
    c31 = _mm512_fmadd_ps(av, b1, c31);                    \
    av = _mm512_set1_ps(a3[a_rs]);                         \
    c40 = _mm512_fmadd_ps(av, b0, c40);                    \
    c41 = _mm512_fmadd_ps(av, b1, c41);                    \
    av = _mm512_set1_ps(a3[2 * a_rs]);                     \
    c50 = _mm512_fmadd_ps(av, b0, c50);                    \
    c51 = _mm512_fmadd_ps(av, b1, c51);                    \
    a0 += a_cs;                                            \
    a3 += a_cs;                                            \
  } while (0)

  std::int64_t k = 0;
  for (; k + 3 < kc; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(p0 + 8 * kNR), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(p1 + 8 * kNR), _MM_HINT_T0);
    RAMIEL_UKR_STEP(0);
    RAMIEL_UKR_STEP(1);
    RAMIEL_UKR_STEP(2);
    RAMIEL_UKR_STEP(3);
    p0 += 4 * kNR;
    p1 += 4 * kNR;
  }
  for (; k < kc; ++k) {
    RAMIEL_UKR_STEP(0);
    p0 += kNR;
    p1 += kNR;
  }
#undef RAMIEL_UKR_STEP

  const bool has_bias = wb.last && wb.bias != nullptr;
  __m512 col0 = _mm512_setzero_ps(), col1 = _mm512_setzero_ps();
  if (has_bias && wb.bias_per_col) {
    col0 = _mm512_loadu_ps(wb.bias);
    col1 = _mm512_loadu_ps(wb.bias + kNR);
  }
  const auto row = [&](std::int64_t r, __m512 v0, __m512 v1) {
    if (has_bias && !wb.bias_per_col) {
      const __m512 rb = _mm512_set1_ps(wb.bias[r * wb.bias_rs]);
      store_row(c + r * ldc, v0, v1, wb, rb, rb);
    } else {
      store_row(c + r * ldc, v0, v1, wb, col0, col1);
    }
  };
  row(0, c00, c01);
  row(1, c10, c11);
  row(2, c20, c21);
  row(3, c30, c31);
  row(4, c40, c41);
  row(5, c50, c51);
}

}  // namespace

MicroKernelFn avx512_pair_microkernel() { return &ukr_avx512_pair; }

}  // namespace ramiel::kernels

#else  // non-x86 target or compiler without AVX-512F codegen

namespace ramiel::kernels {

MicroKernelFn avx512_pair_microkernel() { return nullptr; }

}  // namespace ramiel::kernels

#endif

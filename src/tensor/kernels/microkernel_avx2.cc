// Explicit AVX2+FMA microkernel. This TU is compiled with -mavx2 -mfma
// (see src/tensor/CMakeLists.txt) and must contain nothing that runs on
// hosts without those features: the only exported symbol is a function
// pointer the dispatcher reads *after* its CPUID probe succeeds.
#include "tensor/kernels/microkernel.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ramiel::kernels {
namespace {

// Folds one row's two accumulators into C (see TileWriteback for the
// operation order). b0/b1 are the row's bias lanes, zero when there is none.
// The `0 + acc` step of a first-and-last block is not a no-op here: an FMA
// whose exact result is a negative value below the smallest subnormal
// rounds to -0.0, and 0 + -0.0 is +0.0, which a -0.0 bias then keeps.
inline void store_row(float* c, __m256 v0, __m256 v1, const TileWriteback& wb,
                      __m256 b0, __m256 b1) {
  const __m256 zero = _mm256_setzero_ps();
  if (!wb.first) {
    v0 = _mm256_add_ps(_mm256_loadu_ps(c), v0);
    v1 = _mm256_add_ps(_mm256_loadu_ps(c + 8), v1);
  } else if (wb.last) {
    v0 = _mm256_add_ps(zero, v0);
    v1 = _mm256_add_ps(zero, v1);
  }
  if (wb.last) {
    v0 = _mm256_add_ps(v0, b0);
    v1 = _mm256_add_ps(v1, b1);
    if (wb.relu) {
      // maxps returns its second operand for NaN and for +-0 pairs, so this
      // is `v > 0 ? v : 0` lane for lane.
      v0 = _mm256_max_ps(v0, zero);
      v1 = _mm256_max_ps(v1, zero);
    }
  }
  _mm256_storeu_ps(c, v0);
  _mm256_storeu_ps(c + 8, v1);
}

// 6x16 register tile: two 8-lane accumulators per row.
void ukr_avx2(std::int64_t kc, const float* a, std::int64_t a_rs,
              std::int64_t a_cs, const float* b_panel, float* c,
              std::int64_t ldc, const TileWriteback& wb) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();

  // Rows 0-2 are read through a0, rows 3-5 through a3, each at offsets
  // {0, a_rs, 2 * a_rs}: one addressing form for packed and in-place A.
  const float* a0 = a;
  const float* a3 = a + 3 * a_rs;
  const float* b = b_panel;

  // One k step: 2 B loads + 6 A broadcasts feed 12 FMAs, so the loop is
  // FMA-throughput-bound on any 2-FMA-port core. Unroll by 4 to hide the
  // loop-carried bookkeeping; B is packed k-major, so its prefetch
  // distance is a fixed small stride.
#define RAMIEL_UKR_STEP(BK)                          \
  do {                                               \
    const __m256 b0 = _mm256_loadu_ps((BK));         \
    const __m256 b1 = _mm256_loadu_ps((BK) + 8);     \
    __m256 av = _mm256_broadcast_ss(a0);             \
    c00 = _mm256_fmadd_ps(av, b0, c00);              \
    c01 = _mm256_fmadd_ps(av, b1, c01);              \
    av = _mm256_broadcast_ss(a0 + a_rs);             \
    c10 = _mm256_fmadd_ps(av, b0, c10);              \
    c11 = _mm256_fmadd_ps(av, b1, c11);              \
    av = _mm256_broadcast_ss(a0 + 2 * a_rs);         \
    c20 = _mm256_fmadd_ps(av, b0, c20);              \
    c21 = _mm256_fmadd_ps(av, b1, c21);              \
    av = _mm256_broadcast_ss(a3);                    \
    c30 = _mm256_fmadd_ps(av, b0, c30);              \
    c31 = _mm256_fmadd_ps(av, b1, c31);              \
    av = _mm256_broadcast_ss(a3 + a_rs);             \
    c40 = _mm256_fmadd_ps(av, b0, c40);              \
    c41 = _mm256_fmadd_ps(av, b1, c41);              \
    av = _mm256_broadcast_ss(a3 + 2 * a_rs);         \
    c50 = _mm256_fmadd_ps(av, b0, c50);              \
    c51 = _mm256_fmadd_ps(av, b1, c51);              \
    a0 += a_cs;                                      \
    a3 += a_cs;                                      \
  } while (0)

  std::int64_t k = 0;
  for (; k + 3 < kc; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(b + 8 * kNR), _MM_HINT_T0);
    RAMIEL_UKR_STEP(b);
    RAMIEL_UKR_STEP(b + kNR);
    RAMIEL_UKR_STEP(b + 2 * kNR);
    RAMIEL_UKR_STEP(b + 3 * kNR);
    b += 4 * kNR;
  }
  for (; k < kc; ++k) {
    RAMIEL_UKR_STEP(b);
    b += kNR;
  }
#undef RAMIEL_UKR_STEP

  // Bias lanes: a per-column bias loads once, a per-row/scalar one is
  // broadcast per row; zero when there is none or this is not the last block.
  const bool has_bias = wb.last && wb.bias != nullptr;
  __m256 col0 = _mm256_setzero_ps(), col1 = _mm256_setzero_ps();
  if (has_bias && wb.bias_per_col) {
    col0 = _mm256_loadu_ps(wb.bias);
    col1 = _mm256_loadu_ps(wb.bias + 8);
  }
  const auto row = [&](std::int64_t r, __m256 v0, __m256 v1) {
    if (has_bias && !wb.bias_per_col) {
      const __m256 rb = _mm256_broadcast_ss(wb.bias + r * wb.bias_rs);
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

MicroKernelFn avx2_microkernel() { return &ukr_avx2; }

}  // namespace ramiel::kernels

#else  // non-x86 target or compiler without AVX2 codegen

namespace ramiel::kernels {

MicroKernelFn avx2_microkernel() { return nullptr; }

}  // namespace ramiel::kernels

#endif

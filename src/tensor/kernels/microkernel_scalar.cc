#include "tensor/kernels/microkernel.h"

namespace ramiel::kernels {

// Portable microkernel over the packed panels. The fixed-trip inner loops
// over an accumulator array auto-vectorize to whatever the baseline target
// offers (SSE2 on x86-64), which keeps the packed driver profitable even
// without the explicit AVX2 kernel. The write-back follows TileWriteback's
// operation order element for element, except that it skips the `0 + acc`
// of a first-and-last block: a mul+add chain from +0.0f never yields -0.0
// (a product that rounds to -0.0 is added to +0.0f or to a nonzero value),
// so that add cannot change a bit. On x86-64 this TU builds at the baseline
// ISA, which has no FMA for the compiler to contract the chain into.
void microkernel_scalar(std::int64_t kc, const float* a_panel,
                        const float* b_panel, float* c, std::int64_t ldc,
                        const TileWriteback& wb) {
  float acc[kMR][kNR] = {};
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = a_panel + k * kMR;
    const float* b = b_panel + k * kNR;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = a[r];
      for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] += av * b[j];
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
    float* dst = c + r * ldc;
    for (std::int64_t j = 0; j < kNR; ++j) {
      float v = acc[r][j];
      if (!wb.first) v = dst[j] + v;
      if (wb.last) {
        v += wb.bias == nullptr ? 0.0f
             : wb.bias_per_col  ? wb.bias[j]
                                : wb.bias[r * wb.bias_rs];
        if (wb.relu) v = v > 0.0f ? v : 0.0f;
      }
      dst[j] = v;
    }
  }
}

namespace {

// Shared scalar dot-4 tile: integer math is exact, so this is the reference
// every SIMD tier must match bit-for-bit. AU treats the A panel as the
// unsigned (activation) operand, the B panel as signed weights; the `as`
// variant flips the signedness, matching the x86 dot-4 operand rules.
template <typename AT, typename BT>
void ukr_i8_scalar(std::int64_t kg, const void* a_panel, const void* b_panel,
                   std::int32_t* acc) {
  const AT* a = static_cast<const AT*>(a_panel);
  const BT* b = static_cast<const BT*>(b_panel);
  std::int32_t c[kMR][kNR] = {};
  for (std::int64_t g = 0; g < kg; ++g) {
    const AT* ag = a + g * kMR * 4;
    const BT* bg = b + g * kNR * 4;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const AT* ar = ag + r * 4;
      for (std::int64_t j = 0; j < kNR; ++j) {
        const BT* bj = bg + j * 4;
        c[r][j] += static_cast<std::int32_t>(ar[0]) * bj[0] +
                   static_cast<std::int32_t>(ar[1]) * bj[1] +
                   static_cast<std::int32_t>(ar[2]) * bj[2] +
                   static_cast<std::int32_t>(ar[3]) * bj[3];
      }
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t j = 0; j < kNR; ++j) acc[r * kNR + j] = c[r][j];
  }
}

}  // namespace

void microkernel_i8_scalar_au(std::int64_t kg, const void* a_panel,
                              const void* b_panel, std::int32_t* acc) {
  ukr_i8_scalar<std::uint8_t, std::int8_t>(kg, a_panel, b_panel, acc);
}

void microkernel_i8_scalar_as(std::int64_t kg, const void* a_panel,
                              const void* b_panel, std::int32_t* acc) {
  ukr_i8_scalar<std::int8_t, std::uint8_t>(kg, a_panel, b_panel, acc);
}

}  // namespace ramiel::kernels

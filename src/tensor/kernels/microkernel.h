// Internal contract between the blocked SGEMM driver and its microkernels.
//
// A microkernel computes one full MR x NR register tile
//
//   acc[MR][NR] = sum_{k < kc} a_panel[k][MR] (x) b_panel[k][NR]
//
// over panels packed by the driver (a_panel: k-major with MR consecutive
// row elements per k; b_panel: k-major with NR consecutive column elements
// per k), and writes it straight from registers into C (row-major, leading
// dimension ldc) as a TileWriteback describes (BLIS-style):
//
//   not last:  C = acc  (first)  or  C += acc
//   last:      v = (first ? 0 : C) + acc;  v += bias;  C = relu ? max(v, 0) : v
//
// in exactly that operation order, so the result is bit-identical to
// storing acc and merging it element by element. A kernel whose acc can
// never be -0.0 may skip the `0 + acc` (it is then the identity); an FMA
// chain can reach -0.0 through underflow, so the AVX2 kernel keeps it.
// The kernel always writes the full tile; the driver hands it a local
// MR x NR tile instead of C (plain store: first, not last) for ragged M/N
// edges, Sigmoid, and bias layouts outside the two forms below, then merges
// that tile itself.
#pragma once

#include <cstdint>

namespace ramiel::kernels {

// Register tile. MR=6 rows x NR=16 columns fits AVX2: 12 ymm accumulators
// + 2 B loads + 1 A broadcast = 15 of 16 registers.
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 16;

// Cache blocking. KC x NR B-panels (16 KiB) stream through L1; the MC x KC
// A-block (~72 KiB) sits in L2 while every B-panel of the NC stripe crosses
// it; NC bounds the packed-B stripe (KC x NC = 2 MiB) to L3-ish sizes.
inline constexpr std::int64_t kMC = 72;
inline constexpr std::int64_t kKC = 256;
inline constexpr std::int64_t kNC = 2048;

/// How a microkernel folds its register tile into C. The bias is read only
/// on the last KC block and takes one of two forms: per column (`bias[j]`
/// for tile column j, `bias_per_col`), or per row / scalar
/// (`bias[r * bias_rs]` for tile row r; bias_rs == 0 is a scalar). A null
/// bias adds +0.0f, as the element-wise merge does.
struct TileWriteback {
  bool first = true;  // first KC block: C holds no partial sum yet
  bool last = true;   // last KC block: add bias, apply Relu
  const float* bias = nullptr;
  std::int64_t bias_rs = 0;
  bool bias_per_col = false;
  bool relu = false;
};

/// C points at the tile's (0, 0) element; no alignment is required.
using MicroKernelFn = void (*)(std::int64_t kc, const float* a_panel,
                               const float* b_panel, float* c,
                               std::int64_t ldc, const TileWriteback& wb);

void microkernel_scalar(std::int64_t kc, const float* a_panel,
                        const float* b_panel, float* c, std::int64_t ldc,
                        const TileWriteback& wb);

/// Compiled with AVX2+FMA codegen in its own TU; only ever called after a
/// runtime CPUID check. Null on targets where the compiler can't emit AVX2.
MicroKernelFn avx2_microkernel();

// ---------------------------------------------------------------------------
// Quantized (i8) microkernels.
//
// Panels pack k in groups of 4 so one 32-bit load per A row feeds a whole
// dot-4 instruction (AVX2 pmaddubsw+pmaddwd, or AVX-512 vpdpbusd):
//
//   a_panel: [kg][kMR][4] bytes  (4 consecutive k per row, row-major groups)
//   b_panel: [kg][kNR][4] bytes  (4 consecutive k per column)
//
// kg = ceil(kc / 4); the driver zero-pads the ragged k tail and M/N edges.
// The *signed* operand's padding must be zero (0 * anything == 0); the
// unsigned side's padding is then irrelevant, but the driver zeroes it too.
//
// The x86 dot-4 instructions fix which operand is unsigned, so each tier
// exports two variants: `au` treats the A panel as unsigned u8 activations
// against s8 B weights (gemm/matmul: weights on the right), `as` the
// reverse (conv: weights are the GEMM left operand). Multiplication
// commutes per element, so both compute the same tile, and the pair-sum
// bound 2*127*127 = 32258 < 2^15 means the pmaddubsw chain never saturates
// — every tier produces exactly the same i32 accumulators.
// ---------------------------------------------------------------------------

/// acc is a 64-byte-aligned MR x NR row-major i32 tile, always fully
/// *overwritten* (accumulation across KC blocks stays in the driver).
using MicroKernelI8Fn = void (*)(std::int64_t kg, const void* a_panel,
                                 const void* b_panel, std::int32_t* acc);

/// Per-tier kernel pair; null fields when the TU could not be compiled for
/// the target.
struct I8Microkernels {
  MicroKernelI8Fn au = nullptr;  // A panel unsigned (activations-left)
  MicroKernelI8Fn as = nullptr;  // A panel signed (weights-left, conv)
};

void microkernel_i8_scalar_au(std::int64_t kg, const void* a_panel,
                              const void* b_panel, std::int32_t* acc);
void microkernel_i8_scalar_as(std::int64_t kg, const void* a_panel,
                              const void* b_panel, std::int32_t* acc);

/// AVX2 pmaddubsw/pmaddwd tier (own TU, -mavx2); gated by CPUID at dispatch.
I8Microkernels avx2_i8_microkernels();

/// AVX-512 VNNI vpdpbusd tier (own TU, -mavx512vnni); one dot-4-accumulate
/// instruction per row per k-group — the tier that clears 2x fp32.
I8Microkernels vnni_i8_microkernels();

// ---------------------------------------------------------------------------
// Driver-level row helpers. The quantized GEMM's non-matmul work — the
// dynamic-range scan and the on-pack u8 quantization — is scalar-per-element
// in the portable driver and costs as much as the integer inner loop at
// GEMM-256 sizes. These SIMD versions ride in the -mavx2 TU and are
// bit-exact against the scalar fallbacks (vcvtps2dq and lrintf both round
// to nearest-even under the default MXCSR; vmaxps agrees with std::max on
// finite values), so tier forcing never changes results.
// ---------------------------------------------------------------------------

struct LowpRowKernels {
  /// max(|p[i]|) over n contiguous floats (0 for n == 0).
  float (*absmax_f32)(const float* p, std::int64_t n) = nullptr;
  /// dst[i] = clamp(round(src[i] * inv_sd), -63, 63) + 64 over n floats.
  void (*quantize_u8_row)(const float* src, std::uint8_t* dst, std::int64_t n,
                          float inv_sd) = nullptr;
};

/// AVX2 row helpers (own TU, -mavx2); null fields when the TU could not be
/// compiled for the target. Gated by CPUID at dispatch.
LowpRowKernels avx2_lowp_row_kernels();

/// F16C row converters (own TU, -mf16c): vcvtph2ps / vcvtps2ph, bit-exact
/// against the scalar f16 conversions (both are IEEE, round-to-nearest-even
/// on narrowing). Null fields when the TU could not be compiled; callers
/// must CPUID-check f16c before using them.
struct F16RowKernels {
  void (*to_f32)(const std::uint16_t* src, float* dst, std::int64_t n) =
      nullptr;
  void (*from_f32)(const float* src, std::uint16_t* dst, std::int64_t n) =
      nullptr;
};

F16RowKernels f16c_f16_row_kernels();

}  // namespace ramiel::kernels

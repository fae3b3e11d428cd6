// Packed-panel SGEMM driver: the single matrix-product engine behind
// matmul, gemm and the conv2d implicit-GEMM lowering.
//
// Vector path (BLIS-style):
//
//   for each NC column stripe:
//     for each KC depth block:
//       pack B[kc x nc] into NR-wide k-major panels   (parallel over panels)
//       for each MC row tile:                         (parallel over tiles)
//         pack A[mc x kc] into MR-wide k-major panels (per-lane scratch),
//           unless A is read in place (below)
//         for each NR panel (pair) x MR subtile: microkernel -> C
//
// An f32 A with unit k-stride whose MC row tile is whole MR-row subtiles is
// not packed: the microkernels read it through its row pointer and leading
// dimension. At bert's shapes (M = 96, K <= 512) packing A cost 17-45% of
// a call. At the AVX-512 tier, full tiles over a pair of full panels run the
// 6 x 32 pair kernel; everything else runs the 6 x 16 AVX2 kernel.
//
// The microkernel writes each full register tile straight into C, owning
// accumulation across KC blocks and, on the last block, the bias add and
// Relu (see TileWriteback in microkernel.h). Ragged M/N edge tiles,
// Sigmoid and full [M,N] biases instead land in a local MR x NR tile that
// merge_tile folds into C element by element, in the same operation order,
// so both routes give bit-identical results. Intra-op threads split over
// cache-blocked row tiles — each lane packs its own A tiles into its own
// scratch slice, and the two dispatch_parallel_for calls per (stripe,
// block) act as barriers so no lane reads a B panel that is still being
// packed.
//
// Storage dtypes (sgemm_dt): f16/bf16 operands are widened to f32 inside
// the panel packers — the microkernel and all accumulation stay fp32 — and
// a non-f32 C is staged per NC stripe in an fp32 scratch strip that the
// microkernel writes like any f32 C and that is narrowed once after the
// stripe's last KC block, so rounding to storage precision happens exactly
// once per output element.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "support/check.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/microkernel.h"
#include "tensor/kernels/scratch.h"

namespace ramiel::kernels {
namespace {

struct GemmMetrics {
  obs::Counter* vector = obs::registry().counter(
      "ramiel_kernel_gemm_vector_total",
      "SGEMM calls executed by the packed/blocked vector path");
  obs::Counter* scalar = obs::registry().counter(
      "ramiel_kernel_gemm_scalar_total",
      "SGEMM calls executed by the scalar reference path");
  obs::Counter* avx2 = obs::registry().counter(
      "ramiel_kernel_gemm_avx2_total",
      "Vector-path SGEMM calls at the AVX2 tier (6x16 microkernel)");
  obs::Counter* avx512 = obs::registry().counter(
      "ramiel_kernel_gemm_avx512_total",
      "Vector-path SGEMM calls at the AVX-512 tier (6x32 pair microkernel)");
  obs::Counter* lowp = obs::registry().counter(
      "ramiel_kernel_gemm_lowp_total",
      "SGEMM calls with at least one f16/bf16 storage operand or output");
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics* m = new GemmMetrics();
  return *m;
}

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

inline float activate(Activation act, float v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

inline float bias_at(const Epilogue& ep, std::int64_t m, std::int64_t n) {
  return ep.bias == nullptr
             ? 0.0f
             : ep.bias[m * ep.bias_stride_m + n * ep.bias_stride_n];
}

// Storage loaders: widen one stored element to f32. Templating the packers
// on these keeps the f32 instantiation identical to the pre-dtype code (the
// load inlines to a plain float read).
struct LoadF32 {
  static float at(const void* p, std::int64_t i) {
    return static_cast<const float*>(p)[i];
  }
};
struct LoadF16 {
  static float at(const void* p, std::int64_t i) {
    return f16_to_f32(static_cast<const std::uint16_t*>(p)[i]);
  }
};
struct LoadBF16 {
  static float at(const void* p, std::int64_t i) {
    return bf16_to_f32(static_cast<const std::uint16_t*>(p)[i]);
  }
};

// ---------------------------------------------------------------------------
// Scalar reference path: the seed kernel plus the fused epilogue. Rows are
// the parallel axis; k-outer/n-inner keeps the row accumulator streaming.
// ---------------------------------------------------------------------------

void sgemm_scalar(std::int64_t M, std::int64_t N, std::int64_t K,
                  const float* A, std::int64_t rs_a, std::int64_t cs_a,
                  const float* B, std::int64_t rs_b, std::int64_t cs_b,
                  float* C, std::int64_t ldc, const Epilogue& ep,
                  const OpContext& ctx) {
  dispatch_parallel_for(ctx, M, 2 * K * N, [&](std::int64_t lo,
                                               std::int64_t hi) {
    for (std::int64_t m = lo; m < hi; ++m) {
      float* po = C + m * ldc;
      for (std::int64_t n = 0; n < N; ++n) po[n] = bias_at(ep, m, n);
      for (std::int64_t k = 0; k < K; ++k) {
        const float av = A[m * rs_a + k * cs_a];
        const float* pb = B + k * rs_b;
        for (std::int64_t n = 0; n < N; ++n) po[n] += av * pb[n * cs_b];
      }
      if (ep.act != Activation::kNone) {
        for (std::int64_t n = 0; n < N; ++n) po[n] = activate(ep.act, po[n]);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Packed/blocked vector path
// ---------------------------------------------------------------------------

/// Packs A[m0 .. m0+mc, k0 .. k0+kc] into MR-wide k-major panels, zero-
/// padding the ragged last row tile so the microkernel never branches. Full
/// f32 row tiles with unit k-stride interleave without a per-element branch.
template <typename Load>
void pack_a(float* dst, const void* A, std::int64_t rs_a, std::int64_t cs_a,
            std::int64_t m0, std::int64_t mc, std::int64_t k0,
            std::int64_t kc) {
  std::int64_t i = 0;
  if (std::is_same_v<Load, LoadF32> && cs_a == 1) {
    for (; (i + 1) * kMR <= mc; ++i) {
      float* tile = dst + i * kMR * kc;
      const float* a =
          static_cast<const float*>(A) + (m0 + i * kMR) * rs_a + k0;
      for (std::int64_t k = 0; k < kc; ++k) {
        for (std::int64_t r = 0; r < kMR; ++r) {
          tile[k * kMR + r] = a[r * rs_a + k];
        }
      }
    }
  }
  const std::int64_t tiles = ceil_div(mc, kMR);
  for (; i < tiles; ++i) {
    float* tile = dst + i * kMR * kc;
    for (std::int64_t k = 0; k < kc; ++k) {
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = i * kMR + r;
        tile[k * kMR + r] =
            row < mc ? Load::at(A, (m0 + row) * rs_a + (k0 + k) * cs_a)
                     : 0.0f;
      }
    }
  }
}

/// Packs one NR-wide column panel of B[k0 .. k0+kc, n0 .. n0+nvalid). A full
/// f32 panel with unit column stride is one NR-float copy per k row.
template <typename Load>
void pack_b_panel(float* dst, const void* B, std::int64_t rs_b,
                  std::int64_t cs_b, std::int64_t k0, std::int64_t kc,
                  std::int64_t n0, std::int64_t nvalid) {
  if (std::is_same_v<Load, LoadF32> && cs_b == 1 && nvalid >= kNR) {
    const float* b = static_cast<const float*>(B) + k0 * rs_b + n0;
    for (std::int64_t k = 0; k < kc; ++k) {
      std::memcpy(dst + k * kNR, b + k * rs_b, kNR * sizeof(float));
    }
    return;
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const std::int64_t src = (k0 + k) * rs_b + n0 * cs_b;
    float* row = dst + k * kNR;
    for (std::int64_t j = 0; j < kNR; ++j) {
      row[j] = j < nvalid ? Load::at(B, src + j * cs_b) : 0.0f;
    }
  }
}

// Contiguous-row fast packers for storage dtypes: when the k axis is unit-
// stride, each source row is widened once with the bulk converters (F16C
// for f16 when the host has it) and scattered from an f32 row buffer —
// instead of one branchy scalar conversion call per element, which costs
// more than the FMA inner loop at GEMM-256 sizes.
template <DType DT>
void pack_a_rows(float* dst, const void* A, std::int64_t rs_a,
                 std::int64_t /*cs_a*/, std::int64_t m0, std::int64_t mc,
                 std::int64_t k0, std::int64_t kc) {
  constexpr std::size_t kEsz = dtype_size(DT);
  const auto* base = static_cast<const std::uint8_t*>(A);
  alignas(64) float rowbuf[kKC];
  const std::int64_t tiles = ceil_div(mc, kMR);
  for (std::int64_t i = 0; i < tiles; ++i) {
    float* tile = dst + i * kMR * kc;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const std::int64_t row = i * kMR + r;
      if (row < mc) {
        rows_to_f32(base + static_cast<std::size_t>((m0 + row) * rs_a + k0) *
                               kEsz,
                    DT, rowbuf, static_cast<std::size_t>(kc));
        for (std::int64_t k = 0; k < kc; ++k) tile[k * kMR + r] = rowbuf[k];
      } else {
        for (std::int64_t k = 0; k < kc; ++k) tile[k * kMR + r] = 0.0f;
      }
    }
  }
}

template <DType DT>
void pack_b_rows(float* dst, const void* B, std::int64_t rs_b,
                 std::int64_t /*cs_b*/, std::int64_t k0, std::int64_t kc,
                 std::int64_t n0, std::int64_t nvalid) {
  constexpr std::size_t kEsz = dtype_size(DT);
  const auto* base = static_cast<const std::uint8_t*>(B);
  const std::int64_t cols = std::min<std::int64_t>(nvalid, kNR);
  for (std::int64_t k = 0; k < kc; ++k) {
    float* row = dst + k * kNR;
    rows_to_f32(base + static_cast<std::size_t>((k0 + k) * rs_b + n0) * kEsz,
                DT, row, static_cast<std::size_t>(cols));
    for (std::int64_t j = cols; j < kNR; ++j) row[j] = 0.0f;
  }
}

using PackAFn = void (*)(float*, const void*, std::int64_t, std::int64_t,
                         std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t);
using PackBFn = void (*)(float*, const void*, std::int64_t, std::int64_t,
                         std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t);

PackAFn pack_a_for(DType dt, std::int64_t cs_a) {
  switch (dt) {
    case DType::kF32: return &pack_a<LoadF32>;
    case DType::kF16:
      return cs_a == 1 ? &pack_a_rows<DType::kF16> : &pack_a<LoadF16>;
    case DType::kBF16:
      return cs_a == 1 ? &pack_a_rows<DType::kBF16> : &pack_a<LoadBF16>;
    case DType::kI8: break;
  }
  RAMIEL_CHECK(false, "sgemm: i8 operands go through qgemm");
  return nullptr;
}

PackBFn pack_b_for(DType dt, std::int64_t cs_b) {
  switch (dt) {
    case DType::kF32: return &pack_b_panel<LoadF32>;
    case DType::kF16:
      return cs_b == 1 ? &pack_b_rows<DType::kF16> : &pack_b_panel<LoadF16>;
    case DType::kBF16:
      return cs_b == 1 ? &pack_b_rows<DType::kBF16> : &pack_b_panel<LoadBF16>;
    case DType::kI8: break;
  }
  RAMIEL_CHECK(false, "sgemm: i8 operands go through qgemm");
  return nullptr;
}

/// Folds one locally stored microkernel tile into C: accumulate across KC
/// blocks, apply the epilogue on the last block, mask the M/N edges. The
/// microkernels' direct write-back does the same for full tiles with the
/// epilogues it implements; this is the route for everything else.
/// `bias_n0` is the *global* output column of dst column 0 — it differs
/// from n0 when C is a staged stripe addressed with stripe-local columns.
void merge_tile(float* C, std::int64_t ldc, std::int64_t m0, std::int64_t n0,
                std::int64_t rows, std::int64_t cols, const float* acc,
                bool first, bool last, const Epilogue& ep,
                std::int64_t bias_n0) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* dst = C + (m0 + r) * ldc + n0;
    const float* a = acc + r * kNR;
    if (!last) {
      if (first) {
        for (std::int64_t j = 0; j < cols; ++j) dst[j] = a[j];
      } else {
        for (std::int64_t j = 0; j < cols; ++j) dst[j] += a[j];
      }
      continue;
    }
    for (std::int64_t j = 0; j < cols; ++j) {
      float v = (first ? 0.0f : dst[j]) + a[j];
      v += bias_at(ep, m0 + r, bias_n0 + j);
      dst[j] = activate(ep.act, v);
    }
  }
}

void sgemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K,
                   const void* A, DType a_dt, std::int64_t rs_a,
                   std::int64_t cs_a, const void* B, DType b_dt,
                   std::int64_t rs_b, std::int64_t cs_b, void* C, DType c_dt,
                   std::int64_t ldc, const Epilogue& ep, const OpContext& ctx,
                   MicroKernelFn ukr, MicroKernelFn pair_ukr) {
  const PackAFn do_pack_a = pack_a_for(a_dt, cs_a);
  // Whole MR-row subtiles of an f32 A with unit k-stride are read in place.
  const bool a_in_place_ok = a_dt == DType::kF32 && cs_a == 1;
  const PackBFn do_pack_b = pack_b_for(b_dt, cs_b);
  const bool stage_c = c_dt != DType::kF32;

  // The microkernel writes full tiles back itself when it implements the
  // epilogue: no activation or Relu, with no bias, a per-column bias or a
  // per-row/scalar one. Other tiles go through a local tile + merge_tile.
  const bool bias_cols = ep.bias_stride_m == 0 && ep.bias_stride_n == 1;
  const bool direct =
      ep.act != Activation::kSigmoid &&
      (ep.bias == nullptr || bias_cols || ep.bias_stride_n == 0);
  TileWriteback wb_base;
  wb_base.relu = ep.act == Activation::kRelu;
  if (ep.bias != nullptr) {
    wb_base.bias_rs = ep.bias_stride_m;
    wb_base.bias_per_col = bias_cols;
  }
  const TileWriteback local_store{/*first=*/true, /*last=*/false};

  const std::int64_t mtiles_total = ceil_div(M, kMC);
  const std::int64_t lanes =
      std::max<std::int64_t>(1, std::min<std::int64_t>(
                                    std::max(1, ctx.threads), mtiles_total));

  // One scratch blob: the packed-B stripe, one packed-A slice per lane,
  // then (only when narrowing C) an fp32 staging strip for one NC stripe.
  const std::int64_t kc_max = std::min(K, kKC);
  const std::int64_t nc_max = std::min(N, kNC);
  const std::int64_t bp_floats = kc_max * ceil_div(nc_max, kNR) * kNR;
  const std::int64_t ap_floats = std::min(M, kMC) <= 0
                                     ? 0
                                     : ceil_div(std::min(M, kMC), kMR) * kMR *
                                           kc_max;
  const std::int64_t stage_floats = stage_c ? M * nc_max : 0;
  KernelScratch scratch(
      static_cast<std::size_t>(bp_floats + lanes * ap_floats + stage_floats));
  float* const bp = scratch.data();
  float* const ap0 = bp + bp_floats;
  float* const stage = ap0 + lanes * ap_floats;

  for (std::int64_t n0 = 0; n0 < N; n0 += kNC) {
    const std::int64_t nc = std::min(kNC, N - n0);
    const std::int64_t npan = ceil_div(nc, kNR);
    // Stripe-local output view: non-f32 C accumulates in the fp32 stage and
    // is narrowed once after the stripe's last KC block.
    float* const cdst = stage_c ? stage : static_cast<float*>(C) + n0;
    const std::int64_t ldc_dst = stage_c ? nc : ldc;
    for (std::int64_t k0 = 0; k0 < K; k0 += kKC) {
      const std::int64_t kc = std::min(kKC, K - k0);
      const bool first = k0 == 0;
      const bool last = k0 + kc == K;

      dispatch_parallel_for(
          ctx, npan, 2 * kc * kNR, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t j = lo; j < hi; ++j) {
              do_pack_b(bp + j * kc * kNR, B, rs_b, cs_b, k0, kc, n0 + j * kNR,
                        nc - j * kNR);
            }
          });

      // Lanes get contiguous tile ranges; each lane owns one A-pack slice.
      const std::int64_t parts = std::min(lanes, mtiles_total);
      const std::int64_t part_cost =
          2 * ceil_div(mtiles_total, parts) * kMC * kc * nc;
      dispatch_parallel_for(
          ctx, parts, part_cost, [&](std::int64_t plo, std::int64_t phi) {
            alignas(64) float acc[kMR * kNR];
            TileWriteback tile_wb = wb_base;
            tile_wb.first = first;
            tile_wb.last = last;
            for (std::int64_t p = plo; p < phi; ++p) {
              float* ap = ap0 + p * ap_floats;
              const std::int64_t t_begin = p * mtiles_total / parts;
              const std::int64_t t_end = (p + 1) * mtiles_total / parts;
              for (std::int64_t t = t_begin; t < t_end; ++t) {
                const std::int64_t m0 = t * kMC;
                const std::int64_t mc = std::min(kMC, M - m0);
                const std::int64_t subtiles = ceil_div(mc, kMR);
                const bool in_place = a_in_place_ok && mc % kMR == 0;
                const float* a_blk;
                std::int64_t a_rs, a_cs, a_step;  // a_step: per subtile
                if (in_place) {
                  a_blk = static_cast<const float*>(A) + m0 * rs_a + k0;
                  a_rs = rs_a;
                  a_cs = 1;
                  a_step = kMR * rs_a;
                } else {
                  do_pack_a(ap, A, rs_a, cs_a, m0, mc, k0, kc);
                  a_blk = ap;
                  a_rs = 1;
                  a_cs = kMR;
                  a_step = kMR * kc;
                }
                // A full tile of `fn` (the 6 x 16 or the 6 x 32 pair kernel)
                // straight into C.
                const auto direct_tile = [&](MicroKernelFn fn, std::int64_t i,
                                             std::int64_t j) {
                  const std::int64_t mi = m0 + i * kMR;
                  if (ep.bias != nullptr) {
                    tile_wb.bias = ep.bias + mi * ep.bias_stride_m +
                                   (n0 + j * kNR) * ep.bias_stride_n;
                  }
                  fn(kc, a_blk + i * a_step, a_rs, a_cs, bp + j * kc * kNR,
                     cdst + mi * ldc_dst + j * kNR, ldc_dst, tile_wb);
                };
                // One MR x NR tile: direct when full and the epilogue
                // allows, else through acc + merge_tile.
                const auto tile = [&](std::int64_t i, std::int64_t j) {
                  const std::int64_t cols = std::min(kNR, nc - j * kNR);
                  const std::int64_t rows = std::min(kMR, mc - i * kMR);
                  if (direct && rows == kMR && cols == kNR) {
                    direct_tile(ukr, i, j);
                    return;
                  }
                  ukr(kc, a_blk + i * a_step, a_rs, a_cs, bp + j * kc * kNR,
                      acc, kNR, local_store);
                  merge_tile(cdst, ldc_dst, m0 + i * kMR, j * kNR, rows, cols,
                             acc, first, last, ep, n0 + j * kNR);
                };
                for (std::int64_t j = 0; j < npan;) {
                  // Panels j and j + 1 both full: the pair kernel takes
                  // their full-row tiles.
                  const bool pair =
                      pair_ukr != nullptr && direct && (j + 2) * kNR <= nc;
                  for (std::int64_t i = 0; i < subtiles; ++i) {
                    if (pair && (i + 1) * kMR <= mc) {
                      direct_tile(pair_ukr, i, j);
                    } else {
                      tile(i, j);
                      if (pair) tile(i, j + 1);
                    }
                  }
                  j += pair ? 2 : 1;
                }
              }
            }
          });
    }
    if (stage_c) {
      const std::size_t esz = dtype_size(c_dt);
      auto* cb = static_cast<std::uint8_t*>(C);
      dispatch_parallel_for(ctx, M, 4 * nc, [&](std::int64_t lo,
                                                std::int64_t hi) {
        for (std::int64_t m = lo; m < hi; ++m) {
          rows_from_f32(stage + m * nc, cb + (m * ldc + n0) * esz, c_dt,
                        static_cast<std::size_t>(nc));
        }
      });
    }
  }
}

// Scalar-path fallback for storage dtypes: densify the strided operands to
// row-major fp32 once, run the reference loops, narrow C at the end. The
// scalar path is a correctness baseline, not a speed path, so the extra
// copies are fine.
void sgemm_scalar_dt(std::int64_t M, std::int64_t N, std::int64_t K,
                     const void* A, DType a_dt, std::int64_t rs_a,
                     std::int64_t cs_a, const void* B, DType b_dt,
                     std::int64_t rs_b, std::int64_t cs_b, void* C, DType c_dt,
                     std::int64_t ldc, const Epilogue& ep,
                     const OpContext& ctx) {
  std::vector<float> a_f32, b_f32, c_f32;
  const float* ap = static_cast<const float*>(A);
  const float* bp = static_cast<const float*>(B);
  std::int64_t ars = rs_a, acs = cs_a, brs = rs_b, bcs = cs_b;
  if (a_dt != DType::kF32) {
    a_f32.resize(static_cast<std::size_t>(M * K));
    for (std::int64_t m = 0; m < M; ++m) {
      for (std::int64_t k = 0; k < K; ++k) {
        a_f32[m * K + k] = a_dt == DType::kF16
                               ? LoadF16::at(A, m * rs_a + k * cs_a)
                               : LoadBF16::at(A, m * rs_a + k * cs_a);
      }
    }
    ap = a_f32.data();
    ars = K;
    acs = 1;
  }
  if (b_dt != DType::kF32) {
    b_f32.resize(static_cast<std::size_t>(K * N));
    for (std::int64_t k = 0; k < K; ++k) {
      for (std::int64_t n = 0; n < N; ++n) {
        b_f32[k * N + n] = b_dt == DType::kF16
                               ? LoadF16::at(B, k * rs_b + n * cs_b)
                               : LoadBF16::at(B, k * rs_b + n * cs_b);
      }
    }
    bp = b_f32.data();
    brs = N;
    bcs = 1;
  }
  float* cp = static_cast<float*>(C);
  std::int64_t ldc_c = ldc;
  if (c_dt != DType::kF32) {
    c_f32.resize(static_cast<std::size_t>(M * N));
    cp = c_f32.data();
    ldc_c = N;
  }
  sgemm_scalar(M, N, K, ap, ars, acs, bp, brs, bcs, cp, ldc_c, ep, ctx);
  if (c_dt != DType::kF32) {
    const std::size_t esz = dtype_size(c_dt);
    auto* cb = static_cast<std::uint8_t*>(C);
    for (std::int64_t m = 0; m < M; ++m) {
      convert_f32_to_storage(cp + m * N, cb + m * ldc * esz, c_dt,
                             static_cast<std::size_t>(N));
    }
  }
}

}  // namespace

void apply_activation(Activation act, float* data, std::int64_t n) {
  if (act == Activation::kNone) return;
  for (std::int64_t i = 0; i < n; ++i) data[i] = activate(act, data[i]);
}

float absmax(const void* data, DType dt, std::size_t n) {
  RAMIEL_CHECK(dt != DType::kI8,
               "absmax: i8 tensors are already quantized (no dynamic range "
               "scan applies)");
  const auto scan_f32 = [](const float* p, std::size_t len) {
    const LowpRowKernels rk = active_tier(Gemm::kI8) >= Tier::kAvx2
                                  ? avx2_lowp_row_kernels()
                                  : LowpRowKernels{};
    if (rk.absmax_f32 != nullptr) {
      return rk.absmax_f32(p, static_cast<std::int64_t>(len));
    }
    float m = 0.0f;
    for (std::size_t i = 0; i < len; ++i) m = std::max(m, std::fabs(p[i]));
    return m;
  };
  if (dt == DType::kF32) {
    return scan_f32(static_cast<const float*>(data), n);
  }
  // Half formats: widen in chunks and scan the f32 chunk — the bulk
  // converters beat a per-element conversion call even without SIMD.
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::size_t esz = dtype_size(dt);
  alignas(64) float buf[kKC];
  float m = 0.0f;
  for (std::size_t i = 0; i < n; i += kKC) {
    const std::size_t chunk = std::min<std::size_t>(kKC, n - i);
    rows_to_f32(p + i * esz, dt, buf, chunk);
    m = std::max(m, scan_f32(buf, chunk));
  }
  return m;
}

void sgemm_dt(std::int64_t M, std::int64_t N, std::int64_t K, const void* A,
              DType a_dtype, std::int64_t rs_a, std::int64_t cs_a,
              const void* B, DType b_dtype, std::int64_t rs_b,
              std::int64_t cs_b, void* C, DType c_dtype, std::int64_t ldc,
              const Epilogue& ep, const OpContext& ctx) {
  RAMIEL_CHECK(a_dtype != DType::kI8 && b_dtype != DType::kI8 &&
                   c_dtype != DType::kI8,
               "sgemm_dt: i8 operands go through qgemm");
  if (M <= 0 || N <= 0) return;
  if (a_dtype != DType::kF32 || b_dtype != DType::kF32 ||
      c_dtype != DType::kF32) {
    gemm_metrics().lowp->inc();
  }
  if (K <= 0) {
    // Degenerate product: C = act(bias).
    if (c_dtype == DType::kF32) {
      auto* cf = static_cast<float*>(C);
      for (std::int64_t m = 0; m < M; ++m) {
        for (std::int64_t n = 0; n < N; ++n) {
          cf[m * ldc + n] = activate(ep.act, bias_at(ep, m, n));
        }
      }
    } else {
      std::vector<float> row(static_cast<std::size_t>(N));
      const std::size_t esz = dtype_size(c_dtype);
      auto* cb = static_cast<std::uint8_t*>(C);
      for (std::int64_t m = 0; m < M; ++m) {
        for (std::int64_t n = 0; n < N; ++n) {
          row[n] = activate(ep.act, bias_at(ep, m, n));
        }
        convert_f32_to_storage(row.data(), cb + m * ldc * esz, c_dtype,
                               static_cast<std::size_t>(N));
      }
    }
    return;
  }
  if (active_path() == Path::kVector) {
    GemmMetrics& metrics = gemm_metrics();
    metrics.vector->inc();
    const Tier tier = active_tier(Gemm::kF32);
    MicroKernelFn ukr = &microkernel_scalar;
    MicroKernelFn pair_ukr = nullptr;
    if (tier >= Tier::kAvx2) {
      ukr = avx2_microkernel();
      (tier == Tier::kAvx512 ? metrics.avx512 : metrics.avx2)->inc();
    }
    if (tier == Tier::kAvx512) pair_ukr = avx512_pair_microkernel();
    sgemm_blocked(M, N, K, A, a_dtype, rs_a, cs_a, B, b_dtype, rs_b, cs_b, C,
                  c_dtype, ldc, ep, ctx, ukr, pair_ukr);
  } else {
    gemm_metrics().scalar->inc();
    if (a_dtype == DType::kF32 && b_dtype == DType::kF32 &&
        c_dtype == DType::kF32) {
      sgemm_scalar(M, N, K, static_cast<const float*>(A), rs_a, cs_a,
                   static_cast<const float*>(B), rs_b, cs_b,
                   static_cast<float*>(C), ldc, ep, ctx);
    } else {
      sgemm_scalar_dt(M, N, K, A, a_dtype, rs_a, cs_a, B, b_dtype, rs_b, cs_b,
                      C, c_dtype, ldc, ep, ctx);
    }
  }
}

void sgemm(std::int64_t M, std::int64_t N, std::int64_t K, const float* A,
           std::int64_t rs_a, std::int64_t cs_a, const float* B,
           std::int64_t rs_b, std::int64_t cs_b, float* C, std::int64_t ldc,
           const Epilogue& ep, const OpContext& ctx) {
  sgemm_dt(M, N, K, A, DType::kF32, rs_a, cs_a, B, DType::kF32, rs_b, cs_b, C,
           DType::kF32, ldc, ep, ctx);
}

}  // namespace ramiel::kernels

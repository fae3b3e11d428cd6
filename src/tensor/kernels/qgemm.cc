// Quantized (i8) GEMM driver.
//
// One operand is statically quantized s8 weights (symmetric, per output
// channel — QuantMeta rides on the weight tensor); the other is quantized
// on-pack per call to u8 in [1,127] around zero point 64:
//
//   q(x) = clamp(round(x / s_dyn), -63, 63) + 64,   s_dyn = absmax / 63
//
// The +64 offset keeps the dynamic operand unsigned for the x86 dot-4
// instructions; the merge step subtracts the offset analytically using the
// per-channel sums of the quantized weights (acc - 64 * ws[ch]) instead of
// per-element zero-point math. Accumulation is exact i32 into a staged
// stripe, dequantized once per output element:
//
//   C[m,n] = act(s_dyn * sw[ch] * (acc[m,n] - 64 * ws[ch]) + bias)
//
// Every microkernel tier (scalar, AVX2 maddubs, AVX-512 VNNI) runs through
// this one driver with this one scheme, and none of the integer chains can
// saturate on [0,127] x [-127,127] inputs — so results are bit-identical
// across dispatch, and `ctest -L quant` can assert tier equivalence exactly.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "support/check.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/microkernel.h"
#include "tensor/kernels/scratch.h"

namespace ramiel::kernels {
namespace {

struct QGemmMetrics {
  obs::Counter* scalar = obs::registry().counter(
      "ramiel_kernel_qgemm_scalar_total",
      "Quantized GEMM calls executed with the scalar dot-4 microkernel");
  obs::Counter* avx2 = obs::registry().counter(
      "ramiel_kernel_qgemm_avx2_total",
      "Quantized GEMM calls executed with the AVX2 maddubs microkernel");
  obs::Counter* vnni = obs::registry().counter(
      "ramiel_kernel_qgemm_vnni_total",
      "Quantized GEMM calls executed with the AVX-512 VNNI microkernel");
};

QGemmMetrics& qgemm_metrics() {
  static QGemmMetrics* m = new QGemmMetrics();
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

// Clamp in float *before* rounding: calibrated ranges can undershoot the
// live values arbitrarily, and lrintf on a product beyond i32 range is
// undefined — the pre-clamp keeps saturating inputs well-defined and
// matches the AVX2 row quantizer (vminps/vmaxps then vcvtps2dq) exactly.
inline std::uint8_t quantize_u8(float x, float inv_sd) {
  const float scaled = std::clamp(x * inv_sd, -63.0f, 63.0f);
  return static_cast<std::uint8_t>(static_cast<int>(std::lrintf(scaled)) + 64);
}

/// absmax over a strided M x K view (the uncalibrated dynamic-range scan).
template <typename Load>
float strided_absmax(const void* P, std::int64_t rows, std::int64_t cols,
                     std::int64_t rs, std::int64_t cs) {
  float m = 0.0f;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m = std::max(m, std::fabs(Load::at(P, r * rs + c * cs)));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Panel packers. Layouts match microkernel.h: k in groups of 4,
// a_panel tiles [kg][kMR][4] bytes, b_panel panels [kg][kNR][4] bytes.
// All padding (k tail, M/N edges) is written as 0 — the signed operand's
// zeros annihilate whatever the other side holds, and edge outputs are
// masked at the dequant step anyway.
// ---------------------------------------------------------------------------

template <typename Load>
void pack_a_dyn(std::uint8_t* dst, const void* A, std::int64_t rs_a,
                std::int64_t cs_a, std::int64_t m0, std::int64_t mc,
                std::int64_t k0, std::int64_t kc, float inv_sd) {
  const std::int64_t tiles = ceil_div(mc, kMR);
  const std::int64_t kg = ceil_div(kc, 4);
  for (std::int64_t i = 0; i < tiles; ++i) {
    std::uint8_t* tile = dst + i * kg * kMR * 4;
    for (std::int64_t g = 0; g < kg; ++g) {
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = i * kMR + r;
        std::uint8_t* out = tile + (g * kMR + r) * 4;
        for (std::int64_t u = 0; u < 4; ++u) {
          const std::int64_t k = g * 4 + u;
          out[u] = (row < mc && k < kc)
                       ? quantize_u8(
                             Load::at(A, (m0 + row) * rs_a + (k0 + k) * cs_a),
                             inv_sd)
                       : 0;
        }
      }
    }
  }
}

/// Contiguous-row (cs_a == 1) dynamic A packer: each source row is widened
/// once with the bulk converters, quantized as a row (AVX2 when the tier
/// has it), then scattered into the k-group layout as 4-byte moves. The
/// generic pack_a_dyn does one scalar conversion + quantize call per
/// element, which costs more than the integer inner loop at GEMM-256.
void pack_a_dyn_rows(std::uint8_t* dst, const void* A, DType dt,
                     std::int64_t rs_a, std::int64_t m0, std::int64_t mc,
                     std::int64_t k0, std::int64_t kc, float inv_sd,
                     const LowpRowKernels& rk) {
  const std::size_t esz = dtype_size(dt);
  const auto* base = static_cast<const std::uint8_t*>(A);
  const std::int64_t tiles = ceil_div(mc, kMR);
  const std::int64_t kg = ceil_div(kc, 4);
  alignas(64) float rowbuf[kKC];
  alignas(64) std::uint8_t qrow[kKC + 4];
  for (std::int64_t i = 0; i < tiles; ++i) {
    std::uint8_t* tile = dst + i * kg * kMR * 4;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const std::int64_t row = i * kMR + r;
      if (row >= mc) {
        for (std::int64_t g = 0; g < kg; ++g) {
          std::memset(tile + (g * kMR + r) * 4, 0, 4);
        }
        continue;
      }
      const float* src;
      if (dt == DType::kF32) {
        src = reinterpret_cast<const float*>(base) + (m0 + row) * rs_a + k0;
      } else {
        rows_to_f32(base + static_cast<std::size_t>((m0 + row) * rs_a + k0) *
                               esz,
                    dt, rowbuf, static_cast<std::size_t>(kc));
        src = rowbuf;
      }
      if (rk.quantize_u8_row != nullptr) {
        rk.quantize_u8_row(src, qrow, kc, inv_sd);
      } else {
        for (std::int64_t k = 0; k < kc; ++k) {
          qrow[k] = quantize_u8(src[k], inv_sd);
        }
      }
      for (std::int64_t k = kc; k < kg * 4; ++k) qrow[k] = 0;
      for (std::int64_t g = 0; g < kg; ++g) {
        std::memcpy(tile + (g * kMR + r) * 4, qrow + g * 4, 4);
      }
    }
  }
}

/// Contiguous-row (cs_b == 1) dynamic B packer: quantizes each k-row's
/// NR-wide slice in one call and scatters bytes into the column-group
/// layout.
void pack_b_dyn_rows(std::uint8_t* dst, const void* B, DType dt,
                     std::int64_t rs_b, std::int64_t k0, std::int64_t kc,
                     std::int64_t n0, std::int64_t nvalid, float inv_sd,
                     const LowpRowKernels& rk) {
  const std::size_t esz = dtype_size(dt);
  const auto* base = static_cast<const std::uint8_t*>(B);
  const std::int64_t kg = ceil_div(kc, 4);
  const std::int64_t cols = std::clamp<std::int64_t>(nvalid, 0, kNR);
  std::memset(dst, 0, static_cast<std::size_t>(kg * kNR * 4));
  alignas(64) float rowbuf[kNR];
  alignas(64) std::uint8_t qrow[kNR];
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* src;
    if (dt == DType::kF32) {
      src = reinterpret_cast<const float*>(base) + (k0 + k) * rs_b + n0;
    } else {
      rows_to_f32(base + static_cast<std::size_t>((k0 + k) * rs_b + n0) * esz,
                  dt, rowbuf, static_cast<std::size_t>(cols));
      src = rowbuf;
    }
    if (rk.quantize_u8_row != nullptr) {
      rk.quantize_u8_row(src, qrow, cols, inv_sd);
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        qrow[j] = quantize_u8(src[j], inv_sd);
      }
    }
    std::uint8_t* grp = dst + (k / 4) * kNR * 4 + (k & 3);
    for (std::int64_t j = 0; j < cols; ++j) grp[j * 4] = qrow[j];
  }
}

void pack_a_s8(std::uint8_t* dst, const void* A, std::int64_t rs_a,
               std::int64_t cs_a, std::int64_t m0, std::int64_t mc,
               std::int64_t k0, std::int64_t kc) {
  const auto* src = static_cast<const std::int8_t*>(A);
  const std::int64_t tiles = ceil_div(mc, kMR);
  const std::int64_t kg = ceil_div(kc, 4);
  if (cs_a == 1) {
    // Unit-stride k: whole k-groups are contiguous source bytes, so each
    // row packs as 4-byte moves instead of per-element bounds checks.
    const std::int64_t full = kc / 4;
    for (std::int64_t i = 0; i < tiles; ++i) {
      auto* tile = reinterpret_cast<std::int8_t*>(dst + i * kg * kMR * 4);
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = i * kMR + r;
        if (row >= mc) {
          for (std::int64_t g = 0; g < kg; ++g) {
            std::memset(tile + (g * kMR + r) * 4, 0, 4);
          }
          continue;
        }
        const std::int8_t* prow = src + (m0 + row) * rs_a + k0;
        for (std::int64_t g = 0; g < full; ++g) {
          std::memcpy(tile + (g * kMR + r) * 4, prow + g * 4, 4);
        }
        if (full < kg) {
          std::int8_t* out = tile + (full * kMR + r) * 4;
          const std::int64_t rem = kc - full * 4;
          std::memset(out, 0, 4);
          std::memcpy(out, prow + full * 4, static_cast<std::size_t>(rem));
        }
      }
    }
    return;
  }
  for (std::int64_t i = 0; i < tiles; ++i) {
    auto* tile = reinterpret_cast<std::int8_t*>(dst + i * kg * kMR * 4);
    for (std::int64_t g = 0; g < kg; ++g) {
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = i * kMR + r;
        std::int8_t* out = tile + (g * kMR + r) * 4;
        for (std::int64_t u = 0; u < 4; ++u) {
          const std::int64_t k = g * 4 + u;
          out[u] = (row < mc && k < kc)
                       ? src[(m0 + row) * rs_a + (k0 + k) * cs_a]
                       : 0;
        }
      }
    }
  }
}

template <typename Load>
void pack_b_dyn(std::uint8_t* dst, const void* B, std::int64_t rs_b,
                std::int64_t cs_b, std::int64_t k0, std::int64_t kc,
                std::int64_t n0, std::int64_t nvalid, float inv_sd) {
  const std::int64_t kg = ceil_div(kc, 4);
  for (std::int64_t g = 0; g < kg; ++g) {
    std::uint8_t* row = dst + g * kNR * 4;
    for (std::int64_t j = 0; j < kNR; ++j) {
      std::uint8_t* out = row + j * 4;
      for (std::int64_t u = 0; u < 4; ++u) {
        const std::int64_t k = g * 4 + u;
        out[u] = (j < nvalid && k < kc)
                     ? quantize_u8(
                           Load::at(B, (k0 + k) * rs_b + (n0 + j) * cs_b),
                           inv_sd)
                     : 0;
      }
    }
  }
}

void pack_b_s8(std::uint8_t* dst, const void* B, std::int64_t rs_b,
               std::int64_t cs_b, std::int64_t k0, std::int64_t kc,
               std::int64_t n0, std::int64_t nvalid) {
  const auto* src = static_cast<const std::int8_t*>(B);
  const std::int64_t kg = ceil_div(kc, 4);
  if (cs_b == 1) {
    // Unit-stride n: zero the panel once, then stride-4 scatter each
    // contiguous source k-row — no per-element bounds checks.
    const std::int64_t cols = std::clamp<std::int64_t>(nvalid, 0, kNR);
    std::memset(dst, 0, static_cast<std::size_t>(kg * kNR * 4));
    for (std::int64_t k = 0; k < kc; ++k) {
      const std::int8_t* prow = src + (k0 + k) * rs_b + n0;
      auto* grp = reinterpret_cast<std::int8_t*>(dst + (k / 4) * kNR * 4) +
                  (k & 3);
      for (std::int64_t j = 0; j < cols; ++j) grp[j * 4] = prow[j];
    }
    return;
  }
  for (std::int64_t g = 0; g < kg; ++g) {
    auto* row = reinterpret_cast<std::int8_t*>(dst + g * kNR * 4);
    for (std::int64_t j = 0; j < kNR; ++j) {
      std::int8_t* out = row + j * 4;
      for (std::int64_t u = 0; u < 4; ++u) {
        const std::int64_t k = g * 4 + u;
        out[u] = (j < nvalid && k < kc)
                     ? src[(k0 + k) * rs_b + (n0 + j) * cs_b]
                     : 0;
      }
    }
  }
}

/// Accumulates one microkernel tile into the i32 stage stripe.
inline void merge_tile_i32(std::int32_t* S, std::int64_t lds, std::int64_t m0,
                           std::int64_t n0, std::int64_t rows,
                           std::int64_t cols, const std::int32_t* acc,
                           bool first) {
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int32_t* dst = S + (m0 + r) * lds + n0;
    const std::int32_t* a = acc + r * kNR;
    if (first) {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] = a[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] += a[j];
    }
  }
}

using PackDynAFn = void (*)(std::uint8_t*, const void*, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, float);
using PackDynBFn = void (*)(std::uint8_t*, const void*, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, float);

PackDynAFn pack_a_dyn_for(DType dt) {
  switch (dt) {
    case DType::kF32: return &pack_a_dyn<LoadF32>;
    case DType::kF16: return &pack_a_dyn<LoadF16>;
    case DType::kBF16: return &pack_a_dyn<LoadBF16>;
    case DType::kI8: break;
  }
  RAMIEL_CHECK(false, "qgemm: dynamic operand cannot be i8");
  return nullptr;
}

PackDynBFn pack_b_dyn_for(DType dt) {
  switch (dt) {
    case DType::kF32: return &pack_b_dyn<LoadF32>;
    case DType::kF16: return &pack_b_dyn<LoadF16>;
    case DType::kBF16: return &pack_b_dyn<LoadBF16>;
    case DType::kI8: break;
  }
  RAMIEL_CHECK(false, "qgemm: dynamic operand cannot be i8");
  return nullptr;
}

float measure_absmax(const void* P, DType dt, std::int64_t rows,
                     std::int64_t cols, std::int64_t rs, std::int64_t cs) {
  if (cs == 1) {
    // Contiguous rows: the bulk absmax (SIMD f32 scan, bulk widening for
    // the half formats) replaces one scalar conversion call per element.
    const auto* base = static_cast<const std::uint8_t*>(P);
    const std::size_t esz = dtype_size(dt);
    float m = 0.0f;
    for (std::int64_t r = 0; r < rows; ++r) {
      m = std::max(m, absmax(base + static_cast<std::size_t>(r * rs) * esz,
                             dt, static_cast<std::size_t>(cols)));
    }
    return m;
  }
  switch (dt) {
    case DType::kF32: return strided_absmax<LoadF32>(P, rows, cols, rs, cs);
    case DType::kF16: return strided_absmax<LoadF16>(P, rows, cols, rs, cs);
    case DType::kBF16: return strided_absmax<LoadBF16>(P, rows, cols, rs, cs);
    case DType::kI8: break;
  }
  RAMIEL_CHECK(false, "qgemm: dynamic operand cannot be i8");
  return 0.0f;
}

}  // namespace

void qgemm(std::int64_t M, std::int64_t N, std::int64_t K, const void* A,
           DType a_dtype, std::int64_t rs_a, std::int64_t cs_a, const void* B,
           DType b_dtype, std::int64_t rs_b, std::int64_t cs_b,
           const float* ch_scales, const std::int32_t* ch_sums, void* C,
           DType c_dtype, std::int64_t ldc, float dyn_absmax,
           const Epilogue& ep, const OpContext& ctx) {
  const bool a_is_i8 = a_dtype == DType::kI8;
  const bool b_is_i8 = b_dtype == DType::kI8;
  RAMIEL_CHECK(a_is_i8 != b_is_i8,
               "qgemm: exactly one operand must be i8 weights");
  RAMIEL_CHECK(c_dtype != DType::kI8, "qgemm: i8 output is not supported");
  RAMIEL_CHECK(ch_scales != nullptr && ch_sums != nullptr,
               "qgemm: per-channel scales/sums are required");
  if (M <= 0 || N <= 0) return;

  if (dyn_absmax < 0.0f) {
    dyn_absmax = a_is_i8 ? measure_absmax(B, b_dtype, K, N, rs_b, cs_b)
                         : measure_absmax(A, a_dtype, M, K, rs_a, cs_a);
  }
  if (K <= 0 || dyn_absmax == 0.0f) {
    // All-zero dynamic operand (or empty reduction): C = act(bias). The
    // K<=0 path of sgemm_dt never touches A/B.
    sgemm_dt(M, N, 0, nullptr, DType::kF32, 0, 0, nullptr, DType::kF32, 0, 0,
             C, c_dtype, ldc, ep, ctx);
    return;
  }
  const float sd = dyn_absmax / 63.0f;
  const float inv_sd = 63.0f / dyn_absmax;

  const Tier tier = active_tier(Gemm::kI8);
  I8Microkernels mks;
  switch (tier) {
    case Tier::kAvx512:
      mks = vnni_i8_microkernels();
      qgemm_metrics().vnni->inc();
      break;
    case Tier::kAvx2:
      mks = avx2_i8_microkernels();
      qgemm_metrics().avx2->inc();
      break;
    case Tier::kPortable:
      mks = I8Microkernels{&microkernel_i8_scalar_au, &microkernel_i8_scalar_as};
      qgemm_metrics().scalar->inc();
      break;
  }
  // A signed = weights-left (conv); A unsigned = activations-left (gemm).
  const MicroKernelI8Fn ukr = a_is_i8 ? mks.as : mks.au;
  RAMIEL_CHECK(ukr != nullptr, "qgemm: no microkernel for the active tier");

  // RAMIEL_KERNEL=scalar keeps even the row helpers on their portable
  // loops; the helpers are bit-exact either way, so this only costs speed.
  const LowpRowKernels rk = tier == Tier::kPortable
                                ? LowpRowKernels{}
                                : avx2_lowp_row_kernels();

  const PackDynAFn do_pack_a_dyn = a_is_i8 ? nullptr : pack_a_dyn_for(a_dtype);
  const PackDynBFn do_pack_b_dyn = b_is_i8 ? nullptr : pack_b_dyn_for(b_dtype);

  const std::int64_t mtiles_total = ceil_div(M, kMC);
  const std::int64_t lanes =
      std::max<std::int64_t>(1, std::min<std::int64_t>(
                                    std::max(1, ctx.threads), mtiles_total));

  // Scratch layout (in floats): i32 stage stripe [M x nc_max], then the
  // packed-B byte stripe, then one packed-A byte slice per lane. Byte panels
  // only need 4-byte alignment (unaligned SIMD loads in the microkernels).
  const std::int64_t kc_max = std::min(K, kKC);
  const std::int64_t nc_max = std::min(N, kNC);
  const std::int64_t kg_max = ceil_div(kc_max, 4);
  const std::int64_t b_bytes = ceil_div(nc_max, kNR) * kg_max * kNR * 4;
  const std::int64_t a_bytes =
      ceil_div(std::min(M, kMC), kMR) * kg_max * kMR * 4;
  const std::int64_t stage_floats = M * nc_max;
  KernelScratch scratch(static_cast<std::size_t>(
      stage_floats + ceil_div(b_bytes, 4) + lanes * ceil_div(a_bytes, 4)));
  auto* const stage = reinterpret_cast<std::int32_t*>(scratch.data());
  auto* const bp = reinterpret_cast<std::uint8_t*>(stage + stage_floats);
  std::uint8_t* const ap0 = bp + ceil_div(b_bytes, 4) * 4;

  const std::size_t c_esz = dtype_size(c_dtype);
  auto* const cb = static_cast<std::uint8_t*>(C);

  for (std::int64_t n0 = 0; n0 < N; n0 += kNC) {
    const std::int64_t nc = std::min(kNC, N - n0);
    const std::int64_t npan = ceil_div(nc, kNR);
    for (std::int64_t k0 = 0; k0 < K; k0 += kKC) {
      const std::int64_t kc = std::min(kKC, K - k0);
      const std::int64_t kg = ceil_div(kc, 4);
      const bool first = k0 == 0;

      dispatch_parallel_for(
          ctx, npan, 2 * kc * kNR, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t j = lo; j < hi; ++j) {
              std::uint8_t* dst = bp + j * kg * kNR * 4;
              if (b_is_i8) {
                pack_b_s8(dst, B, rs_b, cs_b, k0, kc, n0 + j * kNR,
                          nc - j * kNR);
              } else if (cs_b == 1) {
                pack_b_dyn_rows(dst, B, b_dtype, rs_b, k0, kc, n0 + j * kNR,
                                nc - j * kNR, inv_sd, rk);
              } else {
                do_pack_b_dyn(dst, B, rs_b, cs_b, k0, kc, n0 + j * kNR,
                              nc - j * kNR, inv_sd);
              }
            }
          });

      const std::int64_t parts = std::min(lanes, mtiles_total);
      const std::int64_t part_cost =
          2 * ceil_div(mtiles_total, parts) * kMC * kc * nc;
      dispatch_parallel_for(
          ctx, parts, part_cost, [&](std::int64_t plo, std::int64_t phi) {
            alignas(64) std::int32_t acc[kMR * kNR];
            for (std::int64_t p = plo; p < phi; ++p) {
              std::uint8_t* ap = ap0 + p * a_bytes;
              const std::int64_t t_begin = p * mtiles_total / parts;
              const std::int64_t t_end = (p + 1) * mtiles_total / parts;
              for (std::int64_t t = t_begin; t < t_end; ++t) {
                const std::int64_t m0 = t * kMC;
                const std::int64_t mc = std::min(kMC, M - m0);
                const std::int64_t subtiles = ceil_div(mc, kMR);
                if (a_is_i8) {
                  pack_a_s8(ap, A, rs_a, cs_a, m0, mc, k0, kc);
                } else if (cs_a == 1) {
                  pack_a_dyn_rows(ap, A, a_dtype, rs_a, m0, mc, k0, kc,
                                  inv_sd, rk);
                } else {
                  do_pack_a_dyn(ap, A, rs_a, cs_a, m0, mc, k0, kc, inv_sd);
                }
                for (std::int64_t j = 0; j < npan; ++j) {
                  const std::uint8_t* bpj = bp + j * kg * kNR * 4;
                  const std::int64_t cols = std::min(kNR, nc - j * kNR);
                  for (std::int64_t i = 0; i < subtiles; ++i) {
                    ukr(kg, ap + i * kg * kMR * 4, bpj, acc);
                    merge_tile_i32(stage, nc, m0 + i * kMR, j * kNR,
                                   std::min(kMR, mc - i * kMR), cols, acc,
                                   first);
                  }
                }
              }
            }
          });
    }

    // Dequantize the stripe: one rounding per output element, fused bias +
    // activation, storage-dtype narrowing on the way out. The per-channel
    // scale/offset are hoisted out of the inner loop (a broadcast when
    // channels are rows, precomputed stripe arrays when they are columns)
    // so each pass is a flat loop the compiler can vectorize.
    std::vector<float> col_scale;
    std::vector<std::int32_t> col_off;
    if (!a_is_i8) {
      col_scale.resize(static_cast<std::size_t>(nc));
      col_off.resize(static_cast<std::size_t>(nc));
      for (std::int64_t j = 0; j < nc; ++j) {
        col_scale[j] = sd * ch_scales[n0 + j];
        col_off[j] = 64 * ch_sums[n0 + j];
      }
    }
    dispatch_parallel_for(ctx, M, 6 * nc, [&](std::int64_t lo,
                                              std::int64_t hi) {
      std::vector<float> row;
      if (c_dtype != DType::kF32) row.resize(static_cast<std::size_t>(nc));
      for (std::int64_t m = lo; m < hi; ++m) {
        const std::int32_t* src = stage + m * nc;
        float* out = c_dtype == DType::kF32
                         ? reinterpret_cast<float*>(cb) + m * ldc + n0
                         : row.data();
        if (a_is_i8) {
          const float s = sd * ch_scales[m];
          const std::int32_t off = 64 * ch_sums[m];
          for (std::int64_t j = 0; j < nc; ++j) {
            out[j] = s * static_cast<float>(src[j] - off);
          }
        } else {
          for (std::int64_t j = 0; j < nc; ++j) {
            out[j] = col_scale[j] * static_cast<float>(src[j] - col_off[j]);
          }
        }
        if (ep.bias != nullptr) {
          if (ep.bias_stride_n == 1) {
            const float* b = ep.bias + m * ep.bias_stride_m + n0;
            for (std::int64_t j = 0; j < nc; ++j) out[j] += b[j];
          } else if (ep.bias_stride_n == 0) {
            const float b = ep.bias[m * ep.bias_stride_m];
            for (std::int64_t j = 0; j < nc; ++j) out[j] += b;
          } else {
            for (std::int64_t j = 0; j < nc; ++j) {
              out[j] += bias_at(ep, m, n0 + j);
            }
          }
        }
        if (ep.act == Activation::kRelu) {
          for (std::int64_t j = 0; j < nc; ++j) {
            out[j] = out[j] > 0.0f ? out[j] : 0.0f;
          }
        } else if (ep.act == Activation::kSigmoid) {
          for (std::int64_t j = 0; j < nc; ++j) {
            out[j] = activate(ep.act, out[j]);
          }
        }
        if (c_dtype != DType::kF32) {
          rows_from_f32(row.data(), cb + (m * ldc + n0) * c_esz, c_dtype,
                        static_cast<std::size_t>(nc));
        }
      }
    });
  }
}

}  // namespace ramiel::kernels

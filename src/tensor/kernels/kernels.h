// High-performance CPU kernel backend.
//
// Two dispatch levels sit underneath matmul/gemm/conv2d:
//
//   kScalar — portable reference loops (the seed implementation, kept as
//             the always-correct fallback and the A/B baseline);
//   kVector — packed-panel SGEMM with MC/KC/NC cache blocking and an
//             MR x NR register-tiled microkernel.
//
// On the vector path each GEMM runs at one of three tiers, the best the
// host's CPU (a CPUID probe) and the compiled TUs allow:
//
//   kPortable — the portable scalar microkernel (any target);
//   kAvx2     — AVX2+FMA: the 6x16 f32 tile, the maddubs i8 tile;
//   kAvx512   — the f32 GEMM's 6x32 AVX-512F tile over two adjacent B
//               panels (edges fall back to the 6x16 tile), the i8 GEMM's
//               AVX-512 VNNI tile.
//
// The f32 tiers from kAvx2 up compute the same FMA chain per output, and
// the i8 tiers the same exact i32 sums, so a tier changes speed, never a
// bit. The f32 kPortable tier is the exception: it has no FMA, and its
// mul+add chain rounds differently.
//
// Path selection: RAMIEL_KERNEL=scalar|vector (default vector), resolved
// once per process; force_kernel_path() overrides for tests/benchmarks,
// and force_tier() caps the tier.
//
// Epilogues: bias add and Relu/Sigmoid are folded into the GEMM write-back
// (the kernel-level counterpart of graph-side fusion like fold_batch_norms),
// so a fused Conv+Relu never materializes the pre-activation tensor.
//
// Scratch: pack buffers and im2col panels come from KernelScratch, which
// asks the thread's AllocSink first (the memory planner's per-worker arena,
// see src/mem/) and falls back to the heap — the arena is never required
// for correctness.
#pragma once

#include <cstdint>
#include <optional>

#include "support/dtype.h"
#include "tensor/thread_pool.h"

namespace ramiel::kernels {

enum class Path { kScalar, kVector };

/// The path the backend will use for the next kernel call (env + override
/// resolved; independent of which microkernel the CPU probe picked).
Path active_path();

/// Test/bench hook: pin the path regardless of RAMIEL_KERNEL. Pass
/// std::nullopt to return to env-based selection.
void force_kernel_path(std::optional<Path> path);

/// Kernel tier, lowest first (see the header comment).
enum class Tier { kPortable, kAvx2, kAvx512 };

/// The GEMMs that pick a tier. f32 (sgemm_dt) reaches kAvx512 with
/// AVX-512F, i8 (qgemm) with AVX-512 VNNI; both reach kAvx2 with AVX2+FMA.
enum class Gemm { kF32, kI8 };

/// Tier the next call of `g` runs: kPortable on the scalar path
/// (RAMIEL_KERNEL=scalar or forced), otherwise the best tier the CPU and
/// the compiled TUs support for `g`, capped by force_tier(). vmath and the
/// element-wise run loops take their AVX2 tier when
/// active_tier(Gemm::kF32) >= Tier::kAvx2.
Tier active_tier(Gemm g);

/// Test/bench hook: cap every tier at `cap` (kAvx2 measures the AVX2
/// kernels on an AVX-512 host). A cap above what the CPU supports runs the
/// best supported tier, never a kernel the CPU cannot execute. Pass
/// std::nullopt to lift the cap.
void force_tier(std::optional<Tier> cap);

const char* tier_name(Tier t);

/// Activation folded into the kernel write-back.
enum class Activation { kNone, kRelu, kSigmoid };

/// Fused write-back transform: C = act(C_acc + bias). The bias term for
/// element (m, n) is bias[m * bias_stride_m + n * bias_stride_n]; a
/// per-column bias uses {0, 1}, a per-row bias (conv channels, a Gemm
/// [M,1] bias) {1, 0}, a scalar bias {0, 0}, a full [M,N] bias {N, 1}.
/// bias == nullptr means no bias.
struct Epilogue {
  const float* bias = nullptr;
  std::int64_t bias_stride_m = 0;
  std::int64_t bias_stride_n = 0;
  Activation act = Activation::kNone;
};

/// C[M,N] (row-major, leading dimension ldc) = act(A * B + bias).
/// A is addressed as A[m * rs_a + k * cs_a], B as B[k * rs_b + n * cs_b],
/// so transposed operands are just swapped strides — packing reads each
/// element exactly once either way (a unit-k-stride A in whole 6-row tiles
/// is read in place, unpacked). Parallelism: splits over cache-blocked
/// row tiles (vector path) or rows (scalar path) via ctx.
void sgemm(std::int64_t M, std::int64_t N, std::int64_t K, const float* A,
           std::int64_t rs_a, std::int64_t cs_a, const float* B,
           std::int64_t rs_b, std::int64_t cs_b, float* C, std::int64_t ldc,
           const Epilogue& ep, const OpContext& ctx);

/// Storage-dtype-polymorphic sgemm: A/B may be stored f32/f16/bf16 (the
/// panel packers convert to f32 on read), C may be f32/f16/bf16 (the
/// write-back epilogue converts after the fp32 accumulation finishes, so
/// precision of the *computation* never depends on storage width). i8
/// operands go through qgemm instead.
void sgemm_dt(std::int64_t M, std::int64_t N, std::int64_t K, const void* A,
              DType a_dtype, std::int64_t rs_a, std::int64_t cs_a,
              const void* B, DType b_dtype, std::int64_t rs_b,
              std::int64_t cs_b, void* C, DType c_dtype, std::int64_t ldc,
              const Epilogue& ep, const OpContext& ctx);

/// Quantized GEMM: exactly one operand is i8 (statically quantized weights,
/// symmetric per output channel), the other is f32/f16/bf16 activations
/// quantized dynamically per call to u8 in [1,127] around zero point 64 —
/// one fixed scheme shared by every microkernel tier so outputs are
/// bit-identical across dispatch. Accumulation is exact i32; the merge step
/// dequantizes and fuses bias/activation:
///
///   C[m,n] = act(s_dyn * ch_scales[ch] * (acc[m,n] - 64 * ch_sums[ch])
///              + bias)
///
/// where ch = m when A is the i8 operand (conv: per-row = per-output-
/// channel) and ch = n when B is (gemm/matmul: per-column). ch_sums are the
/// per-channel sums of the quantized weights (QuantMeta::sums).
///
/// `dyn_absmax`: absmax of the dynamic operand. Pass a calibrated value to
/// skip the per-call scan (values beyond it saturate at the u8 rails), or
/// a negative value to have qgemm measure it. An absmax of 0 degenerates to
/// C = act(bias).
void qgemm(std::int64_t M, std::int64_t N, std::int64_t K, const void* A,
           DType a_dtype, std::int64_t rs_a, std::int64_t cs_a, const void* B,
           DType b_dtype, std::int64_t rs_b, std::int64_t cs_b,
           const float* ch_scales, const std::int32_t* ch_sums, void* C,
           DType c_dtype, std::int64_t ldc, float dyn_absmax,
           const Epilogue& ep, const OpContext& ctx);

/// absmax over n stored elements (f32/f16/bf16) — the dynamic-quantization
/// range scan, shared by the ops layer and the calibration tool.
float absmax(const void* data, DType dt, std::size_t n);

/// Bulk widen/narrow between n contiguous stored elements and f32.
/// Semantics match support's convert_storage_to_f32/convert_f32_to_storage
/// (round-to-nearest-even on narrowing) and kF32 is a plain copy; the f16
/// case runs the F16C converters when the host has them — bit-exact either
/// way, so the choice never changes results. These are what the pack paths
/// and write-back narrowing use for contiguous rows.
void rows_to_f32(const void* src, DType dt, float* dst, std::size_t n);
void rows_from_f32(const float* src, void* dst, DType dt, std::size_t n);

/// Applies `act` in place over n values (used by the conv direct path so a
/// fused activation behaves identically on every path).
void apply_activation(Activation act, float* data, std::int64_t n);

}  // namespace ramiel::kernels

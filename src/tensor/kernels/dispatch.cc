// Runtime kernel-path dispatch: RAMIEL_KERNEL env knob + CPUID probe.
#include <algorithm>
#include <atomic>
#include <cstring>

#include "support/env.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/microkernel.h"

namespace ramiel::kernels {
namespace {

Path env_path() {
  if (env_kernel_path("vector") == "scalar") return Path::kScalar;
  // Unknown values (and "vector") select the vector path — it degrades to
  // the portable microkernel on its own, so it is always a safe default.
  return Path::kVector;
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512_vnni() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// Best tier per GEMM that the hardware (and the compiled TUs) can run. The
// f32 AVX-512 tier hands edge tiles to the AVX2 kernel, so it needs both.
Tier best_tier(Gemm g) {
  if (!cpu_has_avx2_fma()) return Tier::kPortable;
  if (g == Gemm::kF32) {
    if (avx2_microkernel() == nullptr) return Tier::kPortable;
    return cpu_has_avx512f() && avx512_pair_microkernel() != nullptr
               ? Tier::kAvx512
               : Tier::kAvx2;
  }
  if (cpu_has_avx512_vnni() && vnni_i8_microkernels().au != nullptr) {
    return Tier::kAvx512;
  }
  return avx2_i8_microkernels().au != nullptr ? Tier::kAvx2 : Tier::kPortable;
}

// -1 = follow the env default; otherwise a Path value pinned by tests.
std::atomic<int> g_forced{-1};

// -1 = no cap; otherwise the Tier cap pinned by tests.
std::atomic<int> g_tier_cap{-1};

}  // namespace

Path active_path() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Path>(forced);
  static const Path env = env_path();
  return env;
}

void force_kernel_path(std::optional<Path> path) {
  g_forced.store(path ? static_cast<int>(*path) : -1,
                 std::memory_order_relaxed);
}

Tier active_tier(Gemm g) {
  // RAMIEL_KERNEL=scalar pins *all* kernels to their portable loops so the
  // knob keeps meaning "no SIMD anywhere".
  if (active_path() == Path::kScalar) return Tier::kPortable;
  static const Tier best[] = {best_tier(Gemm::kF32), best_tier(Gemm::kI8)};
  const Tier b = best[static_cast<int>(g)];
  const int cap = g_tier_cap.load(std::memory_order_relaxed);
  // The cap never raises a tier: asking for kAvx512 on an AVX2-only host
  // still runs AVX2, so tests exercise "at most this tier".
  return cap < 0 ? b : std::min(static_cast<Tier>(cap), b);
}

void force_tier(std::optional<Tier> cap) {
  g_tier_cap.store(cap ? static_cast<int>(*cap) : -1,
                   std::memory_order_relaxed);
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kPortable: return "portable";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

namespace {

bool cpu_has_f16c() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx");
#else
  return false;
#endif
}

// F16C conversions are bit-exact against the scalar ones, so this is a
// pure speed decision and ignores RAMIEL_KERNEL forcing.
const F16RowKernels& f16_row_kernels() {
  static const F16RowKernels rk =
      cpu_has_f16c() ? f16c_f16_row_kernels() : F16RowKernels{};
  return rk;
}

}  // namespace

void rows_to_f32(const void* src, DType dt, float* dst, std::size_t n) {
  if (dt == DType::kF32) {
    std::memcpy(dst, src, n * sizeof(float));
    return;
  }
  if (dt == DType::kF16 && f16_row_kernels().to_f32 != nullptr) {
    f16_row_kernels().to_f32(static_cast<const std::uint16_t*>(src), dst,
                             static_cast<std::int64_t>(n));
    return;
  }
  convert_storage_to_f32(src, dt, dst, n);
}

void rows_from_f32(const float* src, void* dst, DType dt, std::size_t n) {
  if (dt == DType::kF32) {
    std::memcpy(dst, src, n * sizeof(float));
    return;
  }
  if (dt == DType::kF16 && f16_row_kernels().from_f32 != nullptr) {
    f16_row_kernels().from_f32(src, static_cast<std::uint16_t*>(dst),
                               static_cast<std::int64_t>(n));
    return;
  }
  convert_f32_to_storage(src, dst, dt, n);
}

}  // namespace ramiel::kernels

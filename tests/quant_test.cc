// Low-precision suite (ctest -L quant; CI also runs it under ASan and
// UBSan). The contracts the fp16/bf16 storage and int8 quantized GEMM
// paths must keep:
//
//   (a) storage conversion is exact arithmetic: the bulk rows_to_f32 /
//       rows_from_f32 helpers (which may use F16C) match the scalar
//       converters bit for bit on every f16 pattern, and f16/bf16 -> f32
//       -> f16/bf16 round-trips are the identity;
//   (b) f16/bf16 storage never changes the *computation*: a GEMM over
//       half-width operands is bitwise equal to the f32 GEMM over the
//       widened copies (convert-on-pack reads each element exactly once);
//   (c) the i8 path is one fixed quantization scheme: outputs are
//       bit-identical across the scalar/AVX2/VNNI tiers and across the
//       RAMIEL_KERNEL dispatch knob, calibrated ranges reproduce the
//       measured-range results, saturating inputs clamp at the u8 rails
//       without UB, and an all-zero weight channel stays exactly zero;
//   (d) end to end, every zoo model lowered to f16/bf16/i8 stays within
//       the documented fence (oracle.h) of the f32 oracle on both
//       executors, with and without the planned arena.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "models/zoo.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "support/dtype.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace ramiel {
namespace {

using kernels::Path;
using kernels::Tier;

/// Restores automatic kernel selection on scope exit so a failing test
/// cannot leak a forced path into the rest of the suite.
struct DispatchGuard {
  ~DispatchGuard() {
    kernels::force_kernel_path(std::nullopt);
    kernels::force_tier(std::nullopt);
  }
};

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// max |got - ref| / max(1, absmax(ref)) — the normalized error the
/// documented tolerances (1e-3 half-width, 1e-2 int8) are stated in.
double normalized_max_err(const Tensor& ref, const Tensor& got) {
  const Tensor r = oracle::widen(ref);
  const Tensor g = oracle::widen(got);
  EXPECT_EQ(r.numel(), g.numel());
  double scale = 1.0, err = 0.0;
  for (std::int64_t i = 0; i < r.numel(); ++i) {
    scale = std::max(scale, static_cast<double>(std::fabs(r.at(i))));
  }
  for (std::int64_t i = 0; i < r.numel(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(r.at(i) - g.at(i))));
  }
  return err / scale;
}

// ---------------------------------------------------------------------------
// (a) Conversion exactness.

TEST(QuantConvert, F16WidenMatchesScalarOnEveryBitPattern) {
  // Every one of the 65536 f16 encodings, through the bulk helper (F16C on
  // hosts that have it) and through the scalar reference. Odd length so the
  // SIMD body and the tail path both run.
  std::vector<std::uint16_t> src(65536 + 3);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint16_t>(i & 0xffffu);
  }
  std::vector<float> got(src.size());
  kernels::rows_to_f32(src.data(), DType::kF16, got.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float want = f16_to_f32(src[i]);
    if (std::isnan(want)) {
      // Hardware widening quiets signaling NaNs; only the class is
      // portable, not the payload.
      EXPECT_TRUE(std::isnan(got[i])) << "pattern " << src[i];
    } else {
      ASSERT_EQ(bits_of(got[i]), bits_of(want)) << "pattern " << src[i];
    }
  }
}

TEST(QuantConvert, F16NarrowMatchesScalarOnRandomAndEdgeValues) {
  std::vector<float> src;
  // Edge cases: zeros, subnormal-f16 range, overflow to Inf, rounding
  // midpoints (exactly representable halves pick the even neighbour).
  for (float f : {0.0f, -0.0f, 1.0f, -1.0f, 6.1e-5f, 5.9e-8f, -5.9e-8f,
                  65504.0f, 65520.0f, 70000.0f, -70000.0f, 1.0009765f,
                  1.0004883f, 2048.5f, 2049.5f, 1e30f, -1e30f}) {
    src.push_back(f);
  }
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    src.push_back((static_cast<float>(rng.next_below(1u << 24)) /
                   static_cast<float>(1u << 12)) - 2048.0f);
  }
  std::vector<std::uint16_t> got(src.size());
  kernels::rows_from_f32(src.data(), got.data(), DType::kF16, src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(got[i], f32_to_f16(src[i])) << "value " << src[i];
  }
}

TEST(QuantConvert, F16RoundTripIsIdentityOnEveryFinitePattern) {
  for (std::uint32_t p = 0; p < 65536; ++p) {
    const std::uint16_t h = static_cast<std::uint16_t>(p);
    const float f = f16_to_f32(h);
    if (std::isnan(f)) continue;  // NaNs quiet on the way back
    ASSERT_EQ(f32_to_f16(f), h) << "pattern " << p;
  }
}

TEST(QuantConvert, Bf16RoundTripIsIdentityOnEveryFinitePattern) {
  std::vector<std::uint16_t> src;
  std::vector<float> widened;
  for (std::uint32_t p = 0; p < 65536; ++p) {
    const std::uint16_t h = static_cast<std::uint16_t>(p);
    const float f = bf16_to_f32(h);
    if (std::isnan(f)) continue;
    ASSERT_EQ(f32_to_bf16(f), h) << "pattern " << p;
    src.push_back(h);
    widened.push_back(f);
  }
  // The bulk helpers agree with the scalar path for bf16 too.
  std::vector<float> got(src.size());
  kernels::rows_to_f32(src.data(), DType::kBF16, got.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(widened[i]));
  }
  std::vector<std::uint16_t> back(src.size());
  kernels::rows_from_f32(widened.data(), back.data(), DType::kBF16,
                         src.size());
  EXPECT_EQ(back, src);
}

TEST(QuantConvert, CastRoundTripStaysWithinHalfUlp) {
  Rng rng(11);
  const Tensor x = Tensor::random(Shape{64, 33}, rng, -8.0f, 8.0f);
  const Tensor f16 = x.cast(DType::kF16).cast(DType::kF32);
  const Tensor bf16 = x.cast(DType::kBF16).cast(DType::kF32);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    // Half-ulp relative bounds for round-to-nearest: 2^-11 (f16, 10+1
    // mantissa bits) and 2^-8 (bf16, 7+1 mantissa bits).
    EXPECT_LE(std::fabs(f16.at(i) - x.at(i)),
              std::ldexp(std::fabs(x.at(i)), -11) + 1e-7f);
    EXPECT_LE(std::fabs(bf16.at(i) - x.at(i)),
              std::ldexp(std::fabs(x.at(i)), -8) + 1e-7f);
  }
}

// ---------------------------------------------------------------------------
// (b) Half-width storage never changes the computation.

TEST(QuantGemm, HalfWidthStorageMatchesWidenedF32Bitwise) {
  Rng rng(29);
  for (const DType dt : {DType::kF16, DType::kBF16}) {
    for (const auto& [m, k, n] : std::vector<std::array<std::int64_t, 3>>{
             {3, 5, 7}, {17, 64, 33}, {72, 256, 48}}) {
      const Tensor a = Tensor::random(Shape{m, k}, rng).cast(dt);
      const Tensor b = Tensor::random(Shape{k, n}, rng).cast(dt);
      // Convert-on-pack widens every element exactly once, so the result
      // must be bitwise equal to the f32 GEMM over pre-widened copies.
      const Tensor got = matmul(a, b);
      const Tensor want = matmul(a.cast(DType::kF32), b.cast(DType::kF32));
      SCOPED_TRACE(dtype_name(dt));
      oracle::expect_bit_identical({{{"y", got}}}, {{{"y", want}}});
      // A half-width *output* is the f32 result narrowed element-wise.
      const Tensor narrow = matmul(a, b, OpContext::serial(), dt);
      oracle::expect_bit_identical({{{"y", narrow}}},
                                   {{{"y", want.cast(dt)}}});
    }
  }
}

// ---------------------------------------------------------------------------
// (c) The int8 quantized GEMM.

TEST(QuantI8, MatmulWithinToleranceOnRandomShapes) {
  Rng rng(41);
  for (const auto& [m, k, n] : std::vector<std::array<std::int64_t, 3>>{
           {3, 5, 7}, {8, 16, 16}, {17, 33, 65}, {64, 64, 64},
           {6, 256, 16}, {128, 72, 96}}) {
    const Tensor a = Tensor::random(Shape{m, k}, rng);
    const Tensor b = Tensor::random(Shape{k, n}, rng);
    const Tensor bq = b.quantize_per_channel(/*axis=*/1);
    ASSERT_EQ(bq.dtype(), DType::kI8);
    ASSERT_NE(bq.quant(), nullptr);
    const Tensor got = matmul(a, bq);
    const Tensor ref = matmul(a, b);
    SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
    EXPECT_LE(normalized_max_err(ref, got), 1e-2);
  }
}

TEST(QuantI8, ConvWithinToleranceWithFusedBiasAndRelu) {
  Rng rng(43);
  const Tensor x = Tensor::random(Shape{2, 8, 9, 9}, rng);
  const Tensor w = Tensor::random(Shape{4, 8, 3, 3}, rng);
  const Tensor bias = Tensor::random(Shape{4}, rng);
  const Tensor wq = w.quantize_per_channel(/*axis=*/0);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  p.act = kernels::Activation::kRelu;
  const Tensor ref = conv2d(x, w, bias, p);
  const Tensor got = conv2d(x, wq, bias, p);
  EXPECT_LE(normalized_max_err(ref, got), 1e-2);
}

TEST(QuantI8, BitIdenticalAcrossMicrokernelTiers) {
  DispatchGuard guard;
  Rng rng(47);
  const Tensor a = Tensor::random(Shape{37, 100, 53}, rng);
  const Tensor b = Tensor::random(Shape{53, 41}, rng);
  const Tensor bq = b.quantize_per_channel(1);
  kernels::force_tier(Tier::kPortable);
  const Tensor scalar = matmul(a, bq);
  // Forced tiers are caps, so these degrade gracefully on hosts without
  // the SIMD — the comparison is then trivially true, never skipped.
  kernels::force_tier(Tier::kAvx2);
  const Tensor avx2 = matmul(a, bq);
  kernels::force_tier(std::nullopt);
  const Tensor best = matmul(a, bq);
  oracle::expect_bit_identical({{{"y", scalar}}}, {{{"y", avx2}}});
  oracle::expect_bit_identical({{{"y", scalar}}}, {{{"y", best}}});
}

TEST(QuantI8, CalibratedAbsmaxReproducesMeasuredScan) {
  Rng rng(53);
  const Tensor a = Tensor::random(Shape{24, 96}, rng, -3.0f, 3.0f);
  const Tensor bq =
      Tensor::random(Shape{96, 40}, rng).quantize_per_channel(1);
  const float measured = kernels::absmax(
      a.raw(), a.dtype(), static_cast<std::size_t>(a.numel()));
  const Tensor dynamic = matmul(a, bq, OpContext::serial(), DType::kF32,
                                /*act_absmax=*/-1.0f);
  const Tensor calibrated =
      matmul(a, bq, OpContext::serial(), DType::kF32, measured);
  oracle::expect_bit_identical({{{"y", dynamic}}}, {{{"y", calibrated}}});
}

TEST(QuantI8, SaturatingInputsClampAtTheRailsAcrossTiers) {
  DispatchGuard guard;
  Rng rng(59);
  // Calibrated range deliberately undershoots the live values by 4x: the
  // quantizer must clamp to the u8 rails (no overflow UB, no wraparound)
  // and every tier must clamp identically.
  const Tensor a = Tensor::random(Shape{19, 80}, rng, -4.0f, 4.0f);
  const Tensor bq = Tensor::random(Shape{80, 31}, rng).quantize_per_channel(1);
  kernels::force_tier(Tier::kPortable);
  const Tensor scalar =
      matmul(a, bq, OpContext::serial(), DType::kF32, /*act_absmax=*/1.0f);
  kernels::force_tier(std::nullopt);
  const Tensor best =
      matmul(a, bq, OpContext::serial(), DType::kF32, /*act_absmax=*/1.0f);
  oracle::expect_bit_identical({{{"y", scalar}}}, {{{"y", best}}});
  for (std::int64_t i = 0; i < scalar.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(scalar.at(i)));
  }
  // A clamped result is still the right answer for the clamped inputs:
  // against the f32 product of a pre-clamped A it stays within tolerance.
  std::vector<float> clamped(static_cast<std::size_t>(a.numel()));
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    clamped[static_cast<std::size_t>(i)] =
        std::clamp(a.at(i), -1.0f, 1.0f);
  }
  const Tensor ref =
      matmul(Tensor(a.shape(), std::move(clamped)), bq.dequantize());
  EXPECT_LE(normalized_max_err(ref, scalar), 1e-2);
}

TEST(QuantI8, AllZeroWeightChannelStaysExactlyZero) {
  Rng rng(61);
  const std::int64_t k = 48, n = 9, zero_col = 4;
  std::vector<float> w(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      w[static_cast<std::size_t>(i * n + j)] =
          j == zero_col ? 0.0f
                        : (static_cast<float>(rng.next_below(2000)) - 1000.0f) /
                              500.0f;
    }
  }
  const Tensor b(Shape{k, n}, std::move(w));
  const Tensor bq = b.quantize_per_channel(1);
  // Scale 0 dequantizes the all-zero channel exactly (not to tiny noise)...
  const Tensor deq = bq.dequantize();
  for (std::int64_t i = 0; i < k; ++i) {
    ASSERT_EQ(deq.at(i * n + zero_col), 0.0f);
  }
  // ...and the quantized GEMM writes exact zeros for it too.
  const Tensor a = Tensor::random(Shape{7, k}, rng);
  const Tensor c = matmul(a, bq);
  for (std::int64_t i = 0; i < 7; ++i) {
    ASSERT_EQ(c.at(i * n + zero_col), 0.0f);
  }
  oracle::expect_agrees({{{"c", matmul(a, b)}}}, {{{"c", c}}},
                        oracle::kI8Gemm);
}

TEST(QuantI8, ScalarDispatchKnobForcesThePortableTier) {
  DispatchGuard guard;
  Rng rng(67);
  const Tensor a = Tensor::random(Shape{21, 70}, rng);
  const Tensor bq = Tensor::random(Shape{70, 29}, rng).quantize_per_channel(1);
  const Tensor vec = matmul(a, bq);
  // RAMIEL_KERNEL=scalar (here: the forced equivalent) masks every SIMD
  // kernel, i8 included — and because all tiers share one quantization
  // scheme the portable fallback still produces the same bits.
  kernels::force_kernel_path(Path::kScalar);
  EXPECT_EQ(kernels::active_tier(kernels::Gemm::kI8), Tier::kPortable);
  const Tensor scalar = matmul(a, bq);
  oracle::expect_bit_identical({{{"y", vec}}}, {{{"y", scalar}}});
  // Half-width storage works on the scalar path too; only the fp32
  // summation order differs from the vector path.
  const Tensor ah = a.cast(DType::kF16);
  const Tensor bh = Tensor::random(Shape{70, 29}, rng).cast(DType::kF16);
  const Tensor scalar_h = matmul(ah, bh);
  kernels::force_kernel_path(std::nullopt);
  const Tensor vec_h = matmul(ah, bh);
  ramiel::testing::expect_tensors_close(scalar_h, vec_h, 1e-4f, 1e-4f);
}

// ---------------------------------------------------------------------------
// Calibration files (ramiel_calibrate's "name<TAB>absmax" lines).

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(LoadCalibration, ReadsRangesAndSkipsMalformedLines) {
  const std::string path =
      write_file("ok.calib", "a\t1.5\nno tab\nb\tnot a number\nc\t0\n");
  const auto ranges = load_calibration(path);
  EXPECT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.at("a"), 1.5f);
  EXPECT_EQ(ranges.at("c"), 0.0f);
  EXPECT_THROW(load_calibration(path + ".missing"), Error);
}

TEST(LoadCalibration, RoundTripsRecordedRanges) {
  // Unfolded bert keeps its Constant nodes, whose outputs are not recorded.
  Graph g = models::build("bert");
  const auto ranges =
      record_calibration(g, ramiel::testing::example_inputs(g, 2, 7));
  for (ValueId in : g.inputs()) {
    EXPECT_EQ(ranges.count(g.value(in).name), 1u) << "graph inputs recorded";
  }
  const std::string path = ::testing::TempDir() + "/roundtrip.calib";
  write_calibration(g, ranges, path);
  const auto loaded = load_calibration(path);
  ASSERT_EQ(loaded.size(), ranges.size());
  for (const auto& [name, absmax] : ranges) {
    ASSERT_EQ(loaded.count(name), 1u) << name;
    // The file holds six significant digits.
    EXPECT_NEAR(loaded.at(name), absmax, absmax * 1e-5f) << name;
  }
}

TEST(LoadCalibration, RejectsNonFiniteAndNegativeRangesNamingFileAndLine) {
  // An inf or nan scale turns quantized outputs into NaN (which a fused
  // Relu hides as zeros); a negative one silently means "measure".
  for (const std::string bad : {"inf", "nan", "-inf", "-3", "1e40"}) {
    const std::string path = write_file("bad.calib", "a\t1\nb\t" + bad + "\n");
    try {
      load_calibration(path);
      ADD_FAILURE() << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// (d) End to end: the zoo within the documented fences (oracle.h) on every
// executor/plan combo.

TEST(QuantZoo, EveryModelWithinToleranceAcrossExecutorsAndPlans) {
  for (const std::string& name : models::model_names()) {
    for (const DType dt : {DType::kF16, DType::kBF16, DType::kI8}) {
      EXPECT_GT(oracle::compile(models::build(name), oracle::Cell{.dtype = dt})
                    .quant_stats.weights_quantized,
                0)
          << name;
    }
    oracle::check(oracle::zoo(name),
                  oracle::cells({.placements = {ExecutorKind::kStatic,
                                                ExecutorKind::kSteal},
                                 .arenas = {false, true},
                                 .dtypes = {DType::kF16, DType::kBF16,
                                            DType::kI8}}));
  }
}

}  // namespace
}  // namespace ramiel

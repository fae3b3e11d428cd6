// Bitwise suite for the packed SGEMM driver and its microkernels (ctest -L
// kernel). The oracle is a scalar restatement of the driver's arithmetic:
// per output element, a k-ordered chain of fused multiply-adds from +0.0f
// (mul+add for the portable microkernel, which has no FMA), restarted at
// every KC = 256 block and merged in the driver's order:
//
//   not last:  C = acc  (first)  or  C += acc
//   last:      v = (first ? 0 : C) + acc;  v += bias (or +0.0f);  C = act(v)
//
// Results are compared with memcmp, so any change in FMA order, merge order
// or signed-zero/NaN handling fails here, not just a tolerance breach. Every
// driver test runs at each tier the host runs (portable, AVX2, AVX-512), so
// the AVX-512 pair kernel and the in-place A path are held to the same
// oracle as the AVX2 kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "support/dtype.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/microkernel.h"
#include "tensor/thread_pool.h"
#include "test_util.h"

namespace ramiel {
namespace {

using kernels::Activation;
using kernels::Epilogue;
using kernels::Tier;
using testing::same_bits;

constexpr std::int64_t kBlockK = 256;  // KC of the driver

float apply_act(Activation act, float v) {
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

/// Row-major MxN oracle over f32 operand values addressed through strides.
std::vector<float> oracle(std::int64_t M, std::int64_t N, std::int64_t K,
                          const float* A, std::int64_t rs_a, std::int64_t cs_a,
                          const float* B, std::int64_t rs_b, std::int64_t cs_b,
                          const Epilogue& ep, bool fused) {
  std::vector<float> C(static_cast<std::size_t>(M * N));
  for (std::int64_t k0 = 0; k0 < K; k0 += kBlockK) {
    const std::int64_t kc = std::min(kBlockK, K - k0);
    const bool first = k0 == 0;
    const bool last = k0 + kc == K;
    for (std::int64_t m = 0; m < M; ++m) {
      for (std::int64_t n = 0; n < N; ++n) {
        float acc = 0.0f;
        for (std::int64_t k = k0; k < k0 + kc; ++k) {
          const float a = A[m * rs_a + k * cs_a];
          const float b = B[k * rs_b + n * cs_b];
          acc = fused ? std::fmaf(a, b, acc) : acc + a * b;
        }
        float& c = C[static_cast<std::size_t>(m * N + n)];
        if (!last) {
          c = first ? acc : c + acc;
          continue;
        }
        float v = (first ? 0.0f : c) + acc;
        v += ep.bias == nullptr
                 ? 0.0f
                 : ep.bias[m * ep.bias_stride_m + n * ep.bias_stride_n];
        c = apply_act(ep.act, v);
      }
    }
  }
  return C;
}

/// The f32 tiers this host runs on the vector path, lowest first. The
/// portable tier's microkernel has no FMA (mul+add); the AVX2 and AVX-512
/// tiers fuse, and the oracle follows suit.
std::vector<Tier> host_tiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t <= static_cast<int>(kernels::active_tier(kernels::Gemm::kF32));
       ++t) {
    tiers.push_back(static_cast<Tier>(t));
  }
  return tiers;
}

bool fuses(Tier t) { return t >= Tier::kAvx2; }

/// Runs `run` capped at every host tier and compares its C with `want`,
/// the oracle of that tier's arithmetic (computed once per arithmetic).
void expect_oracle_at_every_tier(
    const std::function<std::vector<float>(bool fused)>& want,
    const std::function<std::vector<float>()>& run, const std::string& what) {
  std::optional<std::vector<float>> cached[2];
  for (const Tier t : host_tiers()) {
    testing::ScopedTier cap(t);
    std::optional<std::vector<float>>& w = cached[fuses(t) ? 1 : 0];
    if (!w) w = want(fuses(t));
    EXPECT_TRUE(same_bits(run(), *w)) << what << " at " << kernels::tier_name(t);
  }
}

std::vector<float> random_values(Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
  return v;
}

struct EpilogueCase {
  const char* name;
  Activation act;
  enum Bias { kNoBias, kPerColumn, kPerRow, kScalar, kFull } bias;
};

constexpr EpilogueCase kEpilogues[] = {
    {"none", Activation::kNone, EpilogueCase::kNoBias},
    {"col", Activation::kNone, EpilogueCase::kPerColumn},
    {"row", Activation::kNone, EpilogueCase::kPerRow},
    {"scalar", Activation::kNone, EpilogueCase::kScalar},
    {"full", Activation::kNone, EpilogueCase::kFull},
    {"relu", Activation::kRelu, EpilogueCase::kNoBias},
    {"col+relu", Activation::kRelu, EpilogueCase::kPerColumn},
    {"row+relu", Activation::kRelu, EpilogueCase::kPerRow},
    {"full+relu", Activation::kRelu, EpilogueCase::kFull},
    {"sigmoid", Activation::kSigmoid, EpilogueCase::kNoBias},
    {"col+sigmoid", Activation::kSigmoid, EpilogueCase::kPerColumn},
};

/// Builds the Epilogue for `ec` over an MxN output; `storage` owns the bias.
Epilogue make_epilogue(const EpilogueCase& ec, std::int64_t M, std::int64_t N,
                       Rng& rng, std::vector<float>& storage) {
  Epilogue ep;
  ep.act = ec.act;
  switch (ec.bias) {
    case EpilogueCase::kNoBias:
      return ep;
    case EpilogueCase::kPerColumn:
      storage = random_values(rng, N);
      ep.bias_stride_n = 1;
      break;
    case EpilogueCase::kPerRow:
      storage = random_values(rng, M);
      ep.bias_stride_m = 1;
      break;
    case EpilogueCase::kScalar:
      storage = random_values(rng, 1);
      break;
    case EpilogueCase::kFull:
      storage = random_values(rng, M * N);
      ep.bias_stride_m = N;
      ep.bias_stride_n = 1;
      break;
  }
  ep.bias = storage.data();
  return ep;
}

/// Runs the vector path on f32 operands (ta/tb store A as KxM / B as NxK)
/// and returns C.
std::vector<float> run_sgemm(std::int64_t M, std::int64_t N, std::int64_t K,
                             const std::vector<float>& A, bool ta,
                             const std::vector<float>& B, bool tb,
                             const Epilogue& ep, const OpContext& ctx) {
  std::vector<float> C(static_cast<std::size_t>(M * N), -7.0f);
  kernels::sgemm(M, N, K, A.data(), ta ? 1 : K, ta ? M : 1, B.data(),
                 tb ? 1 : N, tb ? K : 1, C.data(), N, ep, ctx);
  return C;
}

class SgemmBitwise : public ::testing::Test {
 protected:
  void SetUp() override { kernels::force_kernel_path(kernels::Path::kVector); }
  void TearDown() override {
    kernels::force_kernel_path(std::nullopt);
    kernels::force_tier(std::nullopt);
  }
};

TEST_F(SgemmBitwise, EveryEpilogueOverRaggedShapesAndDepths) {
  // M: ragged (1, 5, 13, 73) or whole 6-row tiles, whose MC blocks read A
  // in place (6, 12, 96). N: single ragged panels, an odd panel count (48)
  // and a pair tail with a ragged panel (70), so the AVX-512 tier mixes its
  // pair kernel with 6 x 16 tiles. K: within and across KC blocks.
  const struct {
    std::int64_t m, n;
  } shapes[] = {{1, 1},   {5, 17},  {6, 16},  {13, 40},
                {73, 33}, {96, 32}, {12, 48}, {96, 70}};
  Rng rng(101);
  for (const auto& s : shapes) {
    for (std::int64_t K : {1, 32, 256, 257, 600}) {
      const auto A = random_values(rng, s.m * K);
      const auto B = random_values(rng, K * s.n);
      for (const EpilogueCase& ec : kEpilogues) {
        std::vector<float> bias;
        const Epilogue ep = make_epilogue(ec, s.m, s.n, rng, bias);
        expect_oracle_at_every_tier(
            [&](bool fused) {
              return oracle(s.m, s.n, K, A.data(), K, 1, B.data(), s.n, 1, ep,
                            fused);
            },
            [&] {
              return run_sgemm(s.m, s.n, K, A, false, B, false, ep,
                               OpContext::serial());
            },
            std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                std::to_string(K) + " " + ec.name);
      }
    }
  }
}

TEST_F(SgemmBitwise, TransposedOperandsUseTheStridedPackers) {
  // trans_a (cs_a != 1) always packs A, also at M = 48 where an untransposed
  // A would be read in place.
  Rng rng(102);
  for (const EpilogueCase& ec : {kEpilogues[6], kEpilogues[7]}) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (std::int64_t K : {1, 32, 257}) {
          for (std::int64_t M : {31, 48}) {
            const std::int64_t N = 50;
            const auto A = random_values(rng, M * K);
            const auto B = random_values(rng, K * N);
            std::vector<float> bias;
            const Epilogue ep = make_epilogue(ec, M, N, rng, bias);
            expect_oracle_at_every_tier(
                [&](bool fused) {
                  return oracle(M, N, K, A.data(), ta ? 1 : K, ta ? M : 1,
                                B.data(), tb ? 1 : N, tb ? K : 1, ep, fused);
                },
                [&] {
                  return run_sgemm(M, N, K, A, ta, B, tb, ep,
                                   OpContext::serial());
                },
                std::string(ec.name) + " ta=" + std::to_string(ta) +
                    " tb=" + std::to_string(tb) + " K=" + std::to_string(K) +
                    " M=" + std::to_string(M));
          }
        }
      }
    }
  }
}

TEST_F(SgemmBitwise, ThreadCountsGiveTheOracleResult) {
  // M = 150: MC blocks of 72, 72 and 6 rows, all read in place, split over
  // intra-op lanes.
  const std::int64_t M = 150, N = 70, K = 600;
  Rng rng(103);
  const auto A = random_values(rng, M * K);
  const auto B = random_values(rng, K * N);
  for (const EpilogueCase& ec : {kEpilogues[0], kEpilogues[7]}) {
    std::vector<float> bias;
    const Epilogue ep = make_epilogue(ec, M, N, rng, bias);
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads - 1);
      const OpContext ctx{threads, &pool};
      expect_oracle_at_every_tier(
          [&](bool fused) {
            return oracle(M, N, K, A.data(), K, 1, B.data(), N, 1, ep, fused);
          },
          [&] { return run_sgemm(M, N, K, A, false, B, false, ep, ctx); },
          std::string(ec.name) + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(SgemmBitwise, HalfStorageOperandsAndOutputs) {
  // f16/bf16 operands widen exactly on pack; a half C is staged in f32 and
  // narrowed once, so the oracle is the f32 oracle over widened operands,
  // narrowed at the end. M = 19 packs a ragged tile; M = 24 with f32
  // operands reads A in place into the staged strip.
  Rng rng(104);
  for (std::int64_t M : {19, 24}) {
    const std::int64_t N = M == 19 ? 37 : 64;
    for (DType dt : {DType::kF16, DType::kBF16}) {
      for (std::int64_t K : {1, 257}) {
        auto A = random_values(rng, M * K);
        auto B = random_values(rng, K * N);
        std::vector<std::uint16_t> a_half(A.size()), b_half(B.size());
        convert_f32_to_storage(A.data(), a_half.data(), dt, A.size());
        convert_f32_to_storage(B.data(), b_half.data(), dt, B.size());
        convert_storage_to_f32(a_half.data(), dt, A.data(), A.size());
        convert_storage_to_f32(b_half.data(), dt, B.data(), B.size());
        for (const EpilogueCase& ec : kEpilogues) {
          std::vector<float> bias;
          const Epilogue ep = make_epilogue(ec, M, N, rng, bias);
          for (const Tier t : host_tiers()) {
            testing::ScopedTier cap(t);
            SCOPED_TRACE(kernels::tier_name(t));
            const auto ref =
                oracle(M, N, K, A.data(), K, 1, B.data(), N, 1, ep, fuses(t));
            std::vector<std::uint16_t> want(ref.size()), got(ref.size());
            convert_f32_to_storage(ref.data(), want.data(), dt, ref.size());
            kernels::sgemm_dt(M, N, K, a_half.data(), dt, K, 1, b_half.data(),
                              dt, N, 1, got.data(), dt, N, ep,
                              OpContext::serial());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(std::uint16_t)),
                      0)
                << dtype_name(dt) << " M=" << M << " K=" << K << " "
                << ec.name;
            // f32 operands into a half C: the staged strip alone.
            std::vector<std::uint16_t> got_c(ref.size());
            kernels::sgemm_dt(M, N, K, A.data(), DType::kF32, K, 1, B.data(),
                              DType::kF32, N, 1, got_c.data(), dt, N, ep,
                              OpContext::serial());
            EXPECT_EQ(got_c, want) << dtype_name(dt) << " f32 in, M=" << M
                                   << " K=" << K << " " << ec.name;
          }
        }
      }
    }
  }
}

TEST_F(SgemmBitwise, SecondColumnStripeReadsGlobalBiasColumns) {
  // N > NC = 2048: the second stripe's tiles sit at stripe-local columns of
  // the f16 staging strip but must read the bias at global columns. M = 12
  // reads A in place.
  const std::int64_t N = 2100, K = 257;
  Rng rng(107);
  for (std::int64_t M : {7, 12}) {
    const auto A = random_values(rng, M * K);
    const auto B = random_values(rng, K * N);
    std::vector<float> bias;
    const Epilogue ep = make_epilogue(kEpilogues[6], M, N, rng, bias);
    for (const Tier t : host_tiers()) {
      testing::ScopedTier cap(t);
      SCOPED_TRACE(kernels::tier_name(t));
      const auto want =
          oracle(M, N, K, A.data(), K, 1, B.data(), N, 1, ep, fuses(t));
      EXPECT_TRUE(same_bits(
          run_sgemm(M, N, K, A, false, B, false, ep, OpContext::serial()),
          want))
          << "M=" << M;
      std::vector<std::uint16_t> want_h(want.size()), got_h(want.size());
      convert_f32_to_storage(want.data(), want_h.data(), DType::kF16,
                             want.size());
      kernels::sgemm_dt(M, N, K, A.data(), DType::kF32, K, 1, B.data(),
                        DType::kF32, N, 1, got_h.data(), DType::kF16, N, ep,
                        OpContext::serial());
      EXPECT_EQ(got_h, want_h) << "M=" << M;
    }
  }
}

TEST_F(SgemmBitwise, NegativeZeroAndNaNUnderRelu) {
  // Products below the smallest subnormal round to -0.0, so a fused chain
  // leaves every accumulator of rows 0-5 at -0.0. Whether an output keeps
  // that sign depends on each step of the merge: one KC block or two,
  // with or without a -0.0 bias (a missing bias adds +0.0f). Relu must
  // turn -0.0 into +0.0, and the NaN row 7 into +0.0 too. M = 12 reads A
  // in place and N = 32 is one panel pair.
  const std::int64_t M = 12, N = 32;
  Rng rng(105);
  const std::vector<float> neg_zero_bias(static_cast<std::size_t>(N), -0.0f);
  for (std::int64_t K : {100, 300}) {
    auto A = random_values(rng, M * K);
    auto B = random_values(rng, K * N);
    for (float& b : B) b = std::fabs(b) * 1e-30f;
    for (std::int64_t k = 0; k < K; ++k) {
      for (std::int64_t m = 0; m < 6; ++m) A[m * K + k] = -1e-30f;
      A[7 * K + k] = k == 3 ? std::numeric_limits<float>::quiet_NaN() : 0.5f;
    }
    for (bool with_bias : {false, true}) {
      for (Activation act : {Activation::kNone, Activation::kRelu}) {
        Epilogue ep;
        ep.act = act;
        if (with_bias) {
          ep.bias = neg_zero_bias.data();
          ep.bias_stride_n = 1;
        }
        for (const Tier t : host_tiers()) {
          testing::ScopedTier cap(t);
          const auto want =
              oracle(M, N, K, A.data(), K, 1, B.data(), N, 1, ep, fuses(t));
          // Only a fused chain keeps -0.0 (+0.0f + -0.0f is +0.0f in
          // mul+add), and only C + acc + bias with all three -0.0 stays
          // there.
          if (fuses(t)) {
            ASSERT_EQ(std::signbit(want[0]),
                      K > 256 && with_bias && act == Activation::kNone);
          }
          ASSERT_EQ(std::isnan(want[7 * N]), act == Activation::kNone);
          const auto got =
              run_sgemm(M, N, K, A, false, B, false, ep, OpContext::serial());
          EXPECT_TRUE(same_bits(got, want))
              << kernels::tier_name(t) << " K=" << K << " bias=" << with_bias
              << " act=" << static_cast<int>(act);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Microkernels called directly through microkernel.h, in every write-back
// mode and with A packed or in place. The portable kernel is reached
// through the driver only at the portable tier; the pair kernel computes a
// 6 x 32 tile over two adjacent panels.
// ---------------------------------------------------------------------------

struct KernelUnderTest {
  const char* name;
  kernels::MicroKernelFn fn;
  bool fused;
  std::int64_t width;  // tile columns: kNR, or 2 * kNR for the pair kernel
};

std::vector<KernelUnderTest> microkernels() {
  using kernels::kNR;
  std::vector<KernelUnderTest> ks = {
      {"scalar", &kernels::microkernel_scalar, false, kNR}};
  const Tier best = [] {
    testing::ScopedPath vector(kernels::Path::kVector);
    return kernels::active_tier(kernels::Gemm::kF32);
  }();
  if (best >= Tier::kAvx2) {
    ks.push_back({"avx2", kernels::avx2_microkernel(), true, kNR});
  }
  if (best >= Tier::kAvx512) {
    ks.push_back(
        {"avx512", kernels::avx512_pair_microkernel(), true, 2 * kNR});
  }
  return ks;
}

/// Operands for one direct microkernel call: an A block read at
/// a[r * a_rs + k * a_cs], packed B panels b[p][k][j] (two for the pair
/// kernel), a C tile with ldc > its width, and biases for every form.
struct TileOperands {
  static constexpr std::int64_t kc = 37;
  std::int64_t width = kernels::kNR, ldc = kernels::kNR + 5;
  std::int64_t a_rs = 1, a_cs = kernels::kMR;
  std::vector<float> a, b_panels, col_bias, row_bias, c0;
};

/// Oracle for one tile in one write-back mode.
std::vector<float> tile_oracle(const TileOperands& t,
                               const kernels::TileWriteback& wb, bool fused) {
  using kernels::kMR;
  using kernels::kNR;
  std::vector<float> want = t.c0;
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t j = 0; j < t.width; ++j) {
      const float* panel = t.b_panels.data() + (j / kNR) * t.kc * kNR;
      float acc = 0.0f;
      for (std::int64_t k = 0; k < t.kc; ++k) {
        const float av = t.a[r * t.a_rs + k * t.a_cs];
        const float bv = panel[k * kNR + j % kNR];
        acc = fused ? std::fmaf(av, bv, acc) : acc + av * bv;
      }
      float& c = want[r * t.ldc + j];
      if (!wb.last) {
        c = wb.first ? acc : c + acc;
        continue;
      }
      float v = (wb.first ? 0.0f : c) + acc;
      v += wb.bias == nullptr ? 0.0f
           : wb.bias_per_col  ? wb.bias[j]
                              : wb.bias[r * wb.bias_rs];
      c = wb.relu ? apply_act(Activation::kRelu, v) : v;
    }
  }
  return want;
}

TEST(MicrokernelWriteback, EveryModeMatchesTheOracle) {
  using kernels::kMR;
  using kernels::kNR;
  Rng rng(106);
  enum BiasForm { kNone, kCol, kRow, kScalar };
  // Random operands, then signed zeros: tiny products that round to -0.0
  // against a C and biases of -0.0, where the merge order decides signs.
  for (const KernelUnderTest& kut : microkernels()) {
    for (bool zeros : {false, true}) {
      // A packed ({1, MR}) or in place: rows of a row-major block with a
      // leading dimension past kc ({kc + 3, 1}).
      for (bool in_place : {false, true}) {
        TileOperands t;
        t.width = kut.width;
        t.ldc = kut.width + 5;
        if (in_place) {
          t.a_rs = t.kc + 3;
          t.a_cs = 1;
        }
        t.a = random_values(rng, kMR * (t.kc + 3));
        t.b_panels = random_values(rng, t.kc * t.width);
        t.col_bias = random_values(rng, t.width);
        t.row_bias = random_values(rng, 2 * kMR);
        t.c0 = random_values(rng, kMR * t.ldc);
        if (zeros) {
          for (float& a : t.a) a = -1e-30f;
          for (float& b : t.b_panels) b = std::fabs(b) * 1e-30f;
          for (auto* v : {&t.col_bias, &t.row_bias, &t.c0}) {
            std::fill(v->begin(), v->end(), -0.0f);
          }
        }
        for (bool first : {false, true}) {
          for (bool last : {false, true}) {
            for (BiasForm form : {kNone, kCol, kRow, kScalar}) {
              for (bool relu : {false, true}) {
                if (!last && (form != kNone || relu)) continue;  // unread
                kernels::TileWriteback wb;
                wb.first = first;
                wb.last = last;
                wb.relu = relu;
                wb.bias = form == kNone  ? nullptr
                          : form == kCol ? t.col_bias.data()
                                         : t.row_bias.data();
                wb.bias_per_col = form == kCol;
                wb.bias_rs = form == kRow ? 2 : 0;
                // Columns past the tile width in each row are padding and
                // must be untouched.
                std::vector<float> got = t.c0;
                kut.fn(t.kc, t.a.data(), t.a_rs, t.a_cs, t.b_panels.data(),
                       got.data(), t.ldc, wb);
                EXPECT_TRUE(same_bits(got, tile_oracle(t, wb, kut.fused)))
                    << kut.name << " zeros=" << zeros
                    << " in_place=" << in_place << " first=" << first
                    << " last=" << last << " bias=" << form
                    << " relu=" << relu;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ramiel

// vmath (src/tensor/kernels/vmath.h): ulp bounds of erf/exp against the
// double-precision libm functions, bitwise equality of the AVX2 and
// portable tiers, position independence, and softmax accuracy.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/vmath.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

namespace vm = kernels::vmath;
using Fn = void (*)(const float*, float*, std::int64_t);

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

using testing::ScopedPath;

/// Runs `body` once per tier this host can execute.
template <typename F>
void for_each_tier(F body) {
  {
    ScopedPath p(kernels::Path::kScalar);
    body("portable");
  }
  if (kernels::vector_microkernel_available()) {
    ScopedPath p(kernels::Path::kVector);
    body("avx2");
  }
}

float bits(std::uint32_t u) { return std::bit_cast<float>(u); }
std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Distance in representable floats; +0 and -0 are the same point.
std::int64_t ulp_distance(float a, float b) {
  auto key = [](float f) -> std::int64_t {
    const auto i = std::bit_cast<std::int32_t>(f);
    return i < 0 ? -static_cast<std::int64_t>(i & 0x7fffffff) : i;
  };
  return std::llabs(key(a) - key(b));
}

/// Every 256th bit pattern (both signs), plus dense windows of 4096 floats
/// around each point in `centers` and its negation.
std::vector<float> sweep(const std::vector<float>& centers) {
  std::vector<float> xs;
  for (std::uint64_t u = 0; u < (1ull << 32); u += 256) {
    xs.push_back(bits(static_cast<std::uint32_t>(u)));
  }
  for (float c : centers) {
    for (float s : {c, -c}) {
      const auto b = static_cast<std::int64_t>(bits(s));
      for (std::int64_t k = -2048; k < 2048; ++k) {
        xs.push_back(bits(static_cast<std::uint32_t>(b + k)));
      }
    }
  }
  return xs;
}

// Polynomial region bounds and the cap.
const std::vector<float> kErfPoints = {0.0f, 1.0f, 2.5f, 3.92f, 4.0f,
                                       3.9192626f};
// Overflow (~88.72), the last normal result (~-87.34), the last subnormal
// result (~-103.97), the clamps, and 0.
const std::vector<float> kExpPoints = {0.0f,      88.7228394f, -87.3365479f,
                                       -103.972f, -104.0f,     89.0f};

void expect_ulp_bound(Fn fn, double (*ref)(double), const char* name,
                      const std::vector<float>& points, std::int64_t bound) {
  const std::vector<float> xs = sweep(points);
  std::vector<float> ys(xs.size());
  fn(xs.data(), ys.data(), static_cast<std::int64_t>(xs.size()));
  std::int64_t worst = 0;
  float worst_x = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::isnan(xs[i])) {
      EXPECT_TRUE(std::isnan(ys[i])) << name << " " << xs[i];
      continue;
    }
    const auto want = static_cast<float>(ref(static_cast<double>(xs[i])));
    const std::int64_t d = ulp_distance(ys[i], want);
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, bound) << name << " worst at x = " << worst_x;
}

TEST(Vmath, ErfWithinTwoUlp) {
  expect_ulp_bound(&vm::erf, [](double x) { return std::erf(x); }, "erf",
                   kErfPoints, 2);
}

TEST(Vmath, ExpWithinOneUlpIncludingSubnormals) {
  expect_ulp_bound(&vm::exp, [](double x) { return std::exp(x); }, "exp",
                   kExpPoints, 1);
}

TEST(Vmath, SpecialValues) {
  for_each_tier([](const char* tier) {
    const float in[] = {0.0f, -0.0f, kInf, -kInf, kNaN, -kNaN,
                        bits(0x7f800001u)};  // last: a signaling NaN
    float e[7], x[7];
    vm::erf(in, e, 7);
    vm::exp(in, x, 7);
    EXPECT_EQ(bits(e[0]), bits(0.0f)) << tier;
    EXPECT_EQ(bits(e[1]), bits(-0.0f)) << tier;
    EXPECT_EQ(e[2], 1.0f) << tier;
    EXPECT_EQ(e[3], -1.0f) << tier;
    EXPECT_EQ(x[0], 1.0f) << tier;
    EXPECT_EQ(x[1], 1.0f) << tier;
    EXPECT_EQ(x[2], kInf) << tier;
    EXPECT_EQ(bits(x[3]), bits(0.0f)) << tier;
    for (int i = 4; i < 7; ++i) {
      EXPECT_TRUE(std::isnan(e[i])) << tier << " " << i;
      EXPECT_TRUE(std::isnan(x[i])) << tier << " " << i;
    }
    const float big[] = {88.8f, 1e30f, std::numeric_limits<float>::max(),
                         -104.5f, -1e30f};
    float y[5];
    vm::exp(big, y, 5);
    EXPECT_EQ(y[0], kInf) << tier;
    EXPECT_EQ(y[1], kInf) << tier;
    EXPECT_EQ(y[2], kInf) << tier;
    EXPECT_EQ(bits(y[3]), bits(0.0f)) << tier;
    EXPECT_EQ(bits(y[4]), bits(0.0f)) << tier;
    // The smallest subnormal result is produced, not flushed.
    const float tiny = -103.2789f;  // exp(tiny) ~= 2^-149
    vm::exp(&tiny, y, 1);
    EXPECT_GT(y[0], 0.0f) << tier;
    EXPECT_LT(y[0], std::numeric_limits<float>::min()) << tier;
  });
}

TEST(Vmath, TiersAreBitwiseEqual) {
  if (!kernels::vector_microkernel_available()) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
  for (const auto& [fn, points] :
       {std::pair{&vm::erf, kErfPoints}, std::pair{&vm::exp, kExpPoints}}) {
    const std::vector<float> xs = sweep(points);
    const auto n = static_cast<std::int64_t>(xs.size());
    std::vector<float> portable(xs.size()), avx2(xs.size());
    {
      ScopedPath p(kernels::Path::kScalar);
      fn(xs.data(), portable.data(), n);
    }
    {
      ScopedPath p(kernels::Path::kVector);
      fn(xs.data(), avx2.data(), n);
    }
    EXPECT_EQ(std::memcmp(portable.data(), avx2.data(), xs.size() * 4), 0);
  }
}

TEST(Vmath, ResultsDoNotDependOnLengthOrOffset) {
  Rng rng(31);
  constexpr std::int64_t kLen = 48;
  std::vector<float> src(kLen);
  for (float& v : src) v = rng.next_float(-6.0f, 6.0f);
  src[3] = kNaN;
  src[20] = -kInf;
  for_each_tier([&](const char* tier) {
    for (Fn fn : {&vm::erf, &vm::exp}) {
      std::vector<float> single(src.size());
      for (std::size_t i = 0; i < src.size(); ++i) fn(&src[i], &single[i], 1);
      for (std::int64_t off = 0; off < 8; ++off) {
        for (std::int64_t n = 0; n <= 33; ++n) {
          std::vector<float> out(src.size(), 12345.0f);
          fn(src.data() + off, out.data() + off, n);
          for (std::int64_t i = 0; i < kLen; ++i) {
            const bool inside = i >= off && i < off + n;
            const float want = inside ? single[i] : 12345.0f;
            ASSERT_EQ(bits(out[i]), bits(want))
                << tier << " off=" << off << " n=" << n << " i=" << i;
          }
        }
      }
    }
  });
}

/// Attention-like rows: normal(0, 3) values.
std::vector<float> attention_rows(std::int64_t rows, std::int64_t d,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(static_cast<std::size_t>(rows * d));
  for (float& v : x) {
    const double u1 = 1.0 - rng.next_float();
    const double u2 = rng.next_float();
    v = static_cast<float>(3.0 * std::sqrt(-2.0 * std::log(u1)) *
                           std::cos(6.283185307179586 * u2));
  }
  return x;
}

/// Checks one softmax over `d` values `stride` apart against a double
/// reference.
void expect_softmax_close(const float* x, const float* y, std::int64_t d,
                          std::int64_t stride, const std::string& what) {
  double mx = -INFINITY;
  for (std::int64_t j = 0; j < d; ++j) mx = std::max(mx, double(x[j * stride]));
  double sum = 0;
  for (std::int64_t j = 0; j < d; ++j) sum += std::exp(x[j * stride] - mx);
  double got_sum = 0;
  for (std::int64_t j = 0; j < d; ++j) {
    const double want = std::exp(x[j * stride] - mx) / sum;
    const double got = y[j * stride];
    got_sum += got;
    if (want >= 1e-30) {
      ASSERT_LE(std::fabs(got - want) / want, 1e-5) << what << " j=" << j;
    }
  }
  EXPECT_NEAR(got_sum, 1.0, 1e-6) << what;
}

TEST(VmathSoftmax, RowsMatchDoubleReference) {
  for_each_tier([](const char* tier) {
    for (std::int64_t d : {1, 7, 8, 96, 1000}) {
      const std::int64_t rows = 16;
      std::vector<float> x = attention_rows(rows, d, 100 + d);
      // Row 0 sits near 1000: only the differences to its max matter.
      for (std::int64_t j = 0; j < d; ++j) x[j] += 1000.0f;
      std::vector<float> y(x.size());
      vm::softmax_rows(x.data(), y.data(), rows, d);
      for (std::int64_t r = 0; r < rows; ++r) {
        expect_softmax_close(x.data() + r * d, y.data() + r * d, d, 1,
                             std::string(tier) + " d=" + std::to_string(d));
      }
    }
  });
}

TEST(VmathSoftmax, NonLastAxisMatchesDoubleReference) {
  for_each_tier([](const char* tier) {
    const std::vector<float> x = attention_rows(1, 3 * 96 * 5, 7);
    const Tensor in(Shape{3, 96, 5}, std::vector<float>(x));
    const Tensor out = softmax(in, 1);
    for (std::int64_t o = 0; o < 3; ++o) {
      for (std::int64_t i = 0; i < 5; ++i) {
        const std::int64_t at = o * 96 * 5 + i;
        expect_softmax_close(in.data().data() + at, out.data().data() + at,
                             96, 5, std::string(tier) + " column");
      }
    }
  });
}

TEST(VmathSoftmax, NanOrPositiveInfinityPoisonsTheRow) {
  for_each_tier([](const char* tier) {
    const std::int64_t d = 11;
    std::vector<float> x = attention_rows(4, d, 5);
    x[0 * d + 9] = kNaN;
    x[1 * d + 2] = kInf;
    for (std::int64_t j = 0; j < d; ++j) x[2 * d + j] = -kInf;
    x[3 * d + 4] = -kInf;  // one -inf alone is just a zero
    std::vector<float> y(x.size());
    vm::softmax_rows(x.data(), y.data(), 4, d);
    for (std::int64_t j = 0; j < 3 * d; ++j) {
      EXPECT_TRUE(std::isnan(y[j])) << tier << j;
    }
    EXPECT_EQ(bits(y[3 * d + 4]), bits(0.0f)) << tier;
    expect_softmax_close(x.data() + 3 * d, y.data() + 3 * d, d, 1, tier);
  });
}

TEST(VmathSoftmax, TiersAreBitwiseEqual) {
  if (!kernels::vector_microkernel_available()) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
  for (std::int64_t d = 1; d <= 40; ++d) {
    std::vector<float> x = attention_rows(3, d, 900 + d);
    x[d] = d % 2 ? kNaN : kInf;  // row 1 poisoned
    std::vector<float> portable(x.size()), avx2(x.size());
    {
      ScopedPath p(kernels::Path::kScalar);
      vm::softmax_rows(x.data(), portable.data(), 3, d);
    }
    {
      ScopedPath p(kernels::Path::kVector);
      vm::softmax_rows(x.data(), avx2.data(), 3, d);
    }
    EXPECT_EQ(std::memcmp(portable.data(), avx2.data(), x.size() * 4), 0)
        << "d=" << d;
  }
}

}  // namespace
}  // namespace ramiel

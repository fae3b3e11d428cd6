// The element-wise run-loop tiers (src/tensor/kernels/elementwise_runs.h):
// the vector path must produce the scalar path's bits on every op it covers,
// run form, run length (tails included), special value and exact in-place
// alias. Every comparison is memcmp, not a tolerance. On a host without AVX2
// both paths run the portable tier and the comparisons hold trivially.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/string_util.h"
#include "tensor/kernels/elementwise_runs.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/vmath.h"
#include "tensor/ops.h"
#include "strided_reference.h"
#include "test_util.h"

namespace ramiel {
namespace {

namespace ew = kernels::ewise;
using kernels::Path;
using testing::broadcast_operand;
using testing::expect_bitwise;
using testing::random_dims;
using testing::same_bits;
using testing::ref_binary;
using testing::ref_reduce_mean;
using testing::ScopedPath;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// The tier each kernel path selects on this host.
const ew::Kernels& tier(Path p) {
  ScopedPath pin(p);
  return ew::active();
}

/// ±0, ±inf, NaNs (one with a payload, one negative), subnormals, the
/// extremes and a few ordinary values.
const std::vector<float> kSpecials = {
    0.0f,   -0.0f,  kInf,     -kInf,    kNaN,
    -kNaN,  std::bit_cast<float>(0x7fc01234u),
    1e-40f, -3e-42f, std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min(),  std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max(), 1.0f, -1.0f, 0.5f, 3.0f};

/// kSpecials for sums: a running sum that is NaN meeting a NaN element is
/// two NaN operands again, so the only NaN here is -kNaN, the bits x86
/// gives inf - inf.
const std::vector<float> kSumSpecials = {
    0.0f,   -0.0f,  kInf,     -kInf,    -kNaN,
    1e-40f, -3e-42f, std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min(),  std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max(), 1.0f, -1.0f, 0.5f, 3.0f};

/// n values: mostly uniform in [-4, 4], about one in four a special value.
std::vector<float> draw(Rng& rng, std::size_t n,
                        const std::vector<float>& specials = kSpecials) {
  std::vector<float> v(n);
  for (float& f : v) {
    f = rng.next_below(4) == 0 ? specials[rng.next_below(specials.size())]
                               : rng.next_float(-4.0f, 4.0f);
  }
  return v;
}

/// Which of two NaN payloads a binary op returns is outside the contract:
/// replace y where both operands of one element would be NaN.
void one_nan_per_element(const std::vector<float>& x, std::int64_t sx,
                         std::vector<float>& y, std::int64_t sy,
                         std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    float& b = y[static_cast<std::size_t>(i * sy)];
    if (std::isnan(x[static_cast<std::size_t>(i * sx)]) && std::isnan(b)) {
      b = 1.0f;
    }
  }
}

struct BinaryCase {
  const char* name;
  ew::BinaryRun ew::Kernels::*run;
};
const BinaryCase kBinary[] = {{"add", &ew::Kernels::add},
                              {"sub", &ew::Kernels::sub},
                              {"mul", &ew::Kernels::mul},
                              {"div", &ew::Kernels::div},
                              {"square", &ew::Kernels::square}};

struct UnaryCase {
  const char* name;
  ew::UnaryRun ew::Kernels::*run;
  float alpha;
};
const UnaryCase kUnary[] = {{"relu", &ew::Kernels::relu, 0.0f},
                            {"leaky_relu", &ew::Kernels::leaky_relu, 0.01f},
                            {"leaky_relu(-1.5)", &ew::Kernels::leaky_relu,
                             -1.5f},
                            {"neg", &ew::Kernels::neg, 0.0f},
                            {"sqrt", &ew::Kernels::sqrt, 0.0f}};

// ---------------------------------------------------------------------------
// The run kernels themselves.
// ---------------------------------------------------------------------------

TEST(ElementwiseTiers, BinaryRunFormsAndTailsMatchScalar) {
  const ew::Kernels& vec = tier(Path::kVector);
  const ew::Kernels& sca = tier(Path::kScalar);
  Rng rng(1901);
  // The three run forms of the contract.
  const std::int64_t forms[][2] = {{1, 1}, {0, 1}, {1, 0}};
  for (const BinaryCase& op : kBinary) {
    for (const auto& form : forms) {
      const std::int64_t sx = form[0], sy = form[1];
      for (std::int64_t n = 0; n <= 33; ++n) {
        const auto span = [n](std::int64_t s) {
          return static_cast<std::size_t>(n == 0 ? 1 : (n - 1) * s + 1);
        };
        std::vector<float> x = draw(rng, span(sx));
        std::vector<float> y = draw(rng, span(sy));
        one_nan_per_element(x, sx, y, sy, n);
        std::vector<float> want(static_cast<std::size_t>(n), -7.0f);
        std::vector<float> got(want);
        (sca.*op.run)(x.data(), sx, y.data(), sy, want.data(), n);
        (vec.*op.run)(x.data(), sx, y.data(), sy, got.data(), n);
        EXPECT_TRUE(same_bits(got, want))
            << op.name << " strides " << sx << "," << sy << " n " << n;
      }
    }
  }
}

TEST(ElementwiseTiers, BinaryRunsInPlace) {
  // The planner's exact alias: the output is one input's own buffer.
  const ew::Kernels& vec = tier(Path::kVector);
  const ew::Kernels& sca = tier(Path::kScalar);
  Rng rng(1902);
  for (const BinaryCase& op : kBinary) {
    for (std::int64_t n = 0; n <= 33; ++n) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<float> want(un);
      // out == x, both contiguous; then against a broadcast y.
      for (const std::int64_t sy : {1, 0}) {
        std::vector<float> x = draw(rng, un);
        std::vector<float> y = draw(rng, un + 1);
        one_nan_per_element(x, 1, y, sy, n);
        (sca.*op.run)(x.data(), 1, y.data(), sy, want.data(), n);
        (vec.*op.run)(x.data(), 1, y.data(), sy, x.data(), n);
        EXPECT_TRUE(same_bits(x, want))
            << op.name << " out == x, sy " << sy << " n " << n;
      }
      // out == y, both contiguous; then against a broadcast x.
      for (const std::int64_t sx : {1, 0}) {
        std::vector<float> x = draw(rng, un + 1);
        std::vector<float> y = draw(rng, un);
        one_nan_per_element(x, sx, y, 1, n);
        (sca.*op.run)(x.data(), sx, y.data(), 1, want.data(), n);
        (vec.*op.run)(x.data(), sx, y.data(), 1, y.data(), n);
        EXPECT_TRUE(same_bits(y, want))
            << op.name << " out == y, sx " << sx << " n " << n;
      }
    }
  }
}

TEST(ElementwiseTiers, UnaryRunsMatchScalarIncludingInPlace) {
  const ew::Kernels& vec = tier(Path::kVector);
  const ew::Kernels& sca = tier(Path::kScalar);
  Rng rng(1903);
  for (const UnaryCase& op : kUnary) {
    for (std::int64_t n = 0; n <= 33; ++n) {
      const std::vector<float> x = draw(rng, static_cast<std::size_t>(n));
      std::vector<float> want(x.size()), got(x.size());
      (sca.*op.run)(x.data(), want.data(), n, op.alpha);
      (vec.*op.run)(x.data(), got.data(), n, op.alpha);
      EXPECT_TRUE(same_bits(got, want)) << op.name << " n " << n;
      std::vector<float> io = x;
      (vec.*op.run)(io.data(), io.data(), n, op.alpha);
      EXPECT_TRUE(same_bits(io, want)) << op.name << " in place, n " << n;
    }
  }
  // Relu's contract at the points where max(v, 0) and v > 0 could differ.
  const float in[] = {-0.0f, 0.0f, kNaN, -kNaN, -kInf, kInf, 1e-40f, -1e-40f};
  float out[8];
  vec.relu(in, out, 8, 0.0f);
  const float expect[] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, kInf, 1e-40f, 0.0f};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(expect[i]))
        << "relu(" << in[i] << ")";
  }
}

TEST(ElementwiseTiers, RowMeansMatchScalarAndSumInOrder) {
  const ew::Kernels& vec = tier(Path::kVector);
  const ew::Kernels& sca = tier(Path::kScalar);
  Rng rng(1904);
  for (std::int64_t rows = 0; rows <= 19; ++rows) {
    for (const std::int64_t d : {0, 1, 3, 7, 8, 9, 15, 16, 17, 33, 128}) {
      const std::vector<float> x =
          draw(rng, static_cast<std::size_t>(rows * d), kSumSpecials);
      const float inv = 1.0f / static_cast<float>(d);
      std::vector<float> want(static_cast<std::size_t>(rows));
      std::vector<float> got(want.size());
      sca.row_means(x.data(), want.data(), rows, d, inv);
      vec.row_means(x.data(), got.data(), rows, d, inv);
      EXPECT_TRUE(same_bits(got, want)) << "rows " << rows << " d " << d;
      // The contract: row r sums its values in order from +0.0f.
      std::vector<float> plain(want.size());
      for (std::int64_t r = 0; r < rows; ++r) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < d; ++j) {
          acc += x[static_cast<std::size_t>(r * d + j)];
        }
        plain[static_cast<std::size_t>(r)] = acc * inv;
      }
      EXPECT_TRUE(same_bits(got, plain)) << "rows " << rows << " d " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Through the ops: the vector path against the scalar path and the
// per-element reference loops.
// ---------------------------------------------------------------------------

/// x's values with about one in four replaced by a special value.
Tensor with_specials(Tensor x, Rng& rng,
                     const std::vector<float>& specials = kSpecials) {
  for (float& f : x.mutable_data()) {
    if (rng.next_below(4) == 0) {
      f = specials[rng.next_below(specials.size())];
    }
  }
  return x;
}

/// `op` on the vector path must equal `op` on the scalar path and `want`.
template <typename Op>
void expect_paths_agree(Op op, const Tensor& want, const std::string& what) {
  Tensor scalar, vector;
  {
    ScopedPath pin(Path::kScalar);
    scalar = op();
  }
  {
    ScopedPath pin(Path::kVector);
    vector = op();
  }
  expect_bitwise(scalar, want, "scalar path " + what);
  expect_bitwise(vector, want, "vector path " + what);
}

TEST(ElementwiseTiers, RandomBroadcastsMatchReferenceOnBothPaths) {
  Rng rng(1905);
  for (int iter = 0; iter < 300; ++iter) {
    const int rank = static_cast<int>(rng.next_below(6));
    const auto out = random_dims(rng, rank, /*zeros=*/true);
    // Longer innermost extents than random_dims draws, so runs have tails.
    std::vector<std::int64_t> dims = out;
    if (!dims.empty() && dims.back() > 1) {
      dims.back() = static_cast<std::int64_t>(rng.next_below(33)) + 2;
    }
    const Shape sa = broadcast_operand(rng, dims);
    const Shape sb = broadcast_operand(rng, dims);
    const Tensor a = with_specials(Tensor::random(sa, rng, -4.0f, 4.0f), rng);
    Tensor b = with_specials(Tensor::random(sb, rng, -4.0f, 4.0f), rng);
    // One NaN per element pair at most (see one_nan_per_element).
    const bool a_has_nan = [&] {
      for (float f : a.data()) {
        if (std::isnan(f)) return true;
      }
      return false;
    }();
    if (a_has_nan) {
      for (float& f : b.mutable_data()) {
        if (std::isnan(f)) f = 1.0f;
      }
    }
    const std::string what = sa.to_string() + " op " + sb.to_string();
    expect_paths_agree([&] { return add(a, b); },
                       ref_binary(a, b, [](float x, float y) { return x + y; }),
                       "Add " + what);
    expect_paths_agree([&] { return sub(a, b); },
                       ref_binary(a, b, [](float x, float y) { return x - y; }),
                       "Sub " + what);
    expect_paths_agree([&] { return mul(a, b); },
                       ref_binary(a, b, [](float x, float y) { return x * y; }),
                       "Mul " + what);
    expect_paths_agree([&] { return div_op(a, b); },
                       ref_binary(a, b, [](float x, float y) { return x / y; }),
                       "Div " + what);
    const Tensor two = Tensor::full(Shape{1}, 2.0f);
    expect_paths_agree([&] { return pow_op(a, two); },
                       ref_binary(a, two, [](float x, float) { return x * x; }),
                       "Pow(x, 2) " + sa.to_string());
  }
}

TEST(ElementwiseTiers, UnaryOpsMatchScalarPath) {
  Rng rng(1906);
  for (const Shape& s : {Shape{0}, Shape{1}, Shape{7}, Shape{33},
                         Shape{1, 96, 37, 37}, Shape{2, 3, 5}}) {
    const Tensor x = with_specials(Tensor::random(s, rng, -4.0f, 4.0f), rng);
    auto ref = [&](auto f) {
      Tensor out(s);
      auto src = x.data();
      auto dst = out.mutable_data();
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = f(src[i]);
      return out;
    };
    const std::string what = s.to_string();
    expect_paths_agree([&] { return relu(x); },
                       ref([](float v) { return v > 0.0f ? v : 0.0f; }),
                       "Relu " + what);
    expect_paths_agree(
        [&] { return leaky_relu(x, 0.2f); },
        ref([](float v) { return v > 0.0f ? v : 0.2f * v; }),
        "LeakyRelu " + what);
    expect_paths_agree([&] { return neg(x); }, ref([](float v) { return -v; }),
                       "Neg " + what);
    expect_paths_agree([&] { return sqrt_op(x); },
                       ref([](float v) { return std::sqrt(v); }),
                       "Sqrt " + what);
  }
}

TEST(ElementwiseTiers, ReduceMeanInnermostAndOtherAxes) {
  Rng rng(1907);
  const std::vector<std::vector<int>> axis_sets = {
      {-1}, {2, 3}, {1, 2, 3}, {0}, {1}, {2}, {0, 2}, {1, 3}, {}};
  // Row counts (product of the kept dims) that are not multiples of 8.
  for (const Shape& s : {Shape{3, 5, 7, 9}, Shape{1, 13, 1, 128},
                         Shape{4, 96, 1, 128}, Shape{2, 3, 1, 17},
                         Shape{1, 1, 1, 33}, Shape{2, 0, 3, 4}}) {
    const Tensor x = with_specials(Tensor::random(s, rng), rng, kSumSpecials);
    for (const auto& axes : axis_sets) {
      std::string what = s.to_string() + " axes";
      for (int a : axes) what += str_cat(" ", a);
      expect_paths_agree([&] { return reduce_mean(x, axes); },
                         ref_reduce_mean(x, axes), what);
    }
  }
}

/// Hands out `slot` for the next tensor allocation on this thread, once:
/// the op's output then aliases that buffer, as a planner in-place slot does.
class AliasSink : public AllocSink {
 public:
  explicit AliasSink(float* slot)
      : slot_(slot), prev_(set_thread_alloc_sink(this)) {}
  ~AliasSink() override { set_thread_alloc_sink(prev_); }
  AliasSink(const AliasSink&) = delete;
  AliasSink& operator=(const AliasSink&) = delete;

  float* take(std::size_t, DType) override {
    float* s = slot_;
    slot_ = nullptr;
    return s;
  }

 private:
  float* slot_;
  AllocSink* prev_;
};

/// Runs op with its output in `buffer`'s storage; returns a copy of it.
template <typename Op>
Tensor in_place(Tensor& buffer, Op op) {
  AliasSink sink(buffer.mutable_data().data());
  const Tensor out = op();
  EXPECT_EQ(out.data().data(), buffer.data().data());
  return Tensor(out.shape(),
                std::vector<float>(out.data().begin(), out.data().end()));
}

TEST(ElementwiseTiers, OpsInPlaceMatchScalarPath) {
  Rng rng(1908);
  const Shape s{3, 37};
  const Tensor x0 = with_specials(Tensor::random(s, rng, -4.0f, 4.0f), rng);
  Tensor y0 = Tensor::random(s, rng, 0.5f, 4.0f);  // NaN-free
  const Tensor bias = Tensor::random(Shape{37}, rng);
  using Unary = Tensor (*)(const Tensor&);
  const std::pair<const char*, Unary> unary[] = {
      {"Relu", &relu}, {"Neg", &neg}, {"Sqrt", &sqrt_op}, {"Gelu", &gelu}};
  using Binary = Tensor (*)(const Tensor&, const Tensor&);
  const std::pair<const char*, Binary> binary[] = {
      {"Add", &add}, {"Sub", &sub}, {"Mul", &mul}, {"Div", &div_op}};
  for (const Path p : {Path::kScalar, Path::kVector}) {
    const std::string path = p == Path::kScalar ? "scalar " : "vector ";
    for (const auto& [name, op] : unary) {
      Tensor want;
      {
        ScopedPath pin(Path::kScalar);
        want = op(x0);
      }
      ScopedPath pin(p);
      Tensor x = x0.clone();
      expect_bitwise(in_place(x, [&] { return op(x); }), want, path + name);
    }
    for (const auto& [name, op] : binary) {
      Tensor want_xy, want_bias;
      {
        ScopedPath pin(Path::kScalar);
        want_xy = op(x0, y0);
        want_bias = op(x0, bias);
      }
      ScopedPath pin(p);
      Tensor x = x0.clone();
      expect_bitwise(in_place(x, [&] { return op(x, y0); }), want_xy,
                     path + name + " out == a");
      Tensor y = y0.clone();
      expect_bitwise(in_place(y, [&] { return op(x0, y); }), want_xy,
                     path + name + " out == b");
      x = x0.clone();
      expect_bitwise(in_place(x, [&] { return op(x, bias); }), want_bias,
                     path + name + " out == a, broadcast b");
    }
  }
}

TEST(ElementwiseTiers, GeluMatchesThePerElementLoop) {
  // gelu() used to call vmath::erf on one element at a time; it now calls
  // it once per block. The result must not change.
  Rng rng(1909);
  for (const std::int64_t n : {0, 1, 7, 8, 33, 511, 512, 513, 1500}) {
    const Tensor x = with_specials(
        Tensor::random(Shape{n}, rng, -6.0f, 6.0f), rng);
    for (const Path p : {Path::kScalar, Path::kVector}) {
      ScopedPath pin(p);
      Tensor want(x.shape());
      auto dst = want.mutable_data();
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = x.data()[static_cast<std::size_t>(i)];
        float e = v * 0.70710678f;
        kernels::vmath::erf(&e, &e, 1);
        dst[static_cast<std::size_t>(i)] = 0.5f * v * (1.0f + e);
      }
      const std::string what =
          str_cat(p == Path::kScalar ? "scalar" : "vector", " n ", n);
      expect_bitwise(gelu(x), want, "Gelu " + what);
      Tensor io = x.clone();
      if (n > 0) {
        expect_bitwise(in_place(io, [&] { return gelu(io); }), want,
                       "Gelu in place " + what);
      }
    }
  }
}

}  // namespace
}  // namespace ramiel

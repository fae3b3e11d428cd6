// Bitwise equivalence of the strided-run kernels (broadcast binary ops,
// transpose, reduce_mean) with the per-element odometer loops they replaced.
// The reference loops (here and in strided_reference.h) are those loops,
// kept as the oracle; every case compares with memcmp, not a tolerance. Pow
// with a one-element exponent of 2 is the one documented numerics change:
// it computes x * x.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/string_util.h"
#include "tensor/ops.h"
#include "tensor/strided_loop.h"
#include "strided_reference.h"

namespace ramiel {
namespace {

using testing::broadcast_operand;
using testing::expect_bitwise;
using testing::random_dims;
using testing::ref_binary;
using testing::ref_reduce_mean;

// ---------------------------------------------------------------------------
// Reference kernels: one odometer step per element (the broadcast binary
// and reduce_mean loops are in strided_reference.h).
// ---------------------------------------------------------------------------

Tensor ref_transpose(const Tensor& x, const std::vector<int>& perm) {
  const Shape& xs = x.shape();
  std::vector<std::int64_t> out_dims(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out_dims[i] = xs.dim(perm[i]);
  Shape os(std::move(out_dims));
  Tensor out{os};
  const auto in_strides = xs.strides();
  auto src = x.data();
  auto dst = out.mutable_data();
  const std::int64_t n = xs.numel();
  std::vector<std::int64_t> idx(perm.size(), 0);
  for (std::int64_t flat = 0; flat < n; ++flat) {
    std::int64_t src_off = 0;
    for (std::size_t d = 0; d < perm.size(); ++d) {
      src_off += idx[d] * in_strides[static_cast<std::size_t>(perm[d])];
    }
    dst[static_cast<std::size_t>(flat)] = src[static_cast<std::size_t>(src_off)];
    for (int d = static_cast<int>(perm.size()) - 1; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++idx[ud] < os.dim(d)) break;
      idx[ud] = 0;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::string case_name(const Shape& a, const Shape& b) {
  return a.to_string() + " op " + b.to_string();
}

/// Every binary op against the reference on one operand pair.
void check_binary_ops(const Tensor& a, const Tensor& b) {
  const std::string what = case_name(a.shape(), b.shape());
  expect_bitwise(add(a, b), ref_binary(a, b, [](float x, float y) { return x + y; }),
                 "Add " + what);
  expect_bitwise(sub(a, b), ref_binary(a, b, [](float x, float y) { return x - y; }),
                 "Sub " + what);
  expect_bitwise(mul(a, b), ref_binary(a, b, [](float x, float y) { return x * y; }),
                 "Mul " + what);
  expect_bitwise(div_op(a, b),
                 ref_binary(a, b, [](float x, float y) { return x / y; }),
                 "Div " + what);
}

// ---------------------------------------------------------------------------
// Binary ops.
// ---------------------------------------------------------------------------

TEST(StridedBinary, RandomBroadcastsMatchReferenceBitwise) {
  Rng rng(1301);
  for (int iter = 0; iter < 400; ++iter) {
    const int rank = static_cast<int>(rng.next_below(6));  // 0..5
    const auto out = random_dims(rng, rank, /*zeros=*/true);
    Shape sa = broadcast_operand(rng, out);
    Shape sb = broadcast_operand(rng, out);
    if (rng.next_below(2) == 0) std::swap(sa, sb);
    const Tensor a = Tensor::random(sa, rng, -4.0f, 4.0f);
    const Tensor b = Tensor::random(sb, rng, -4.0f, 4.0f);
    check_binary_ops(a, b);
  }
}

TEST(StridedBinary, BroadcastsOnBothSides) {
  Rng rng(1302);
  const Tensor a = Tensor::random(Shape{3, 1, 5}, rng);
  const Tensor b = Tensor::random(Shape{1, 4, 1}, rng);
  check_binary_ops(a, b);
  check_binary_ops(b, a);
  const Tensor c = Tensor::random(Shape{2, 1, 4, 1}, rng);
  const Tensor d = Tensor::random(Shape{3, 1, 6}, rng);
  check_binary_ops(c, d);
  check_binary_ops(d, c);
}

TEST(StridedBinary, ScalarOperandOnEitherSide) {
  Rng rng(1303);
  const Tensor x = Tensor::random(Shape{2, 3, 4}, rng);
  for (const Shape& s : {Shape{}, Shape{1}, Shape{1, 1, 1}, Shape{1, 1, 1, 1}}) {
    const Tensor k = Tensor::random(s, rng);
    check_binary_ops(x, k);
    check_binary_ops(k, x);
    check_binary_ops(k, k);
  }
}

TEST(StridedBinary, BertShapes) {
  Rng rng(1304);
  const Tensor x = Tensor::random(Shape{1, 96, 128}, rng);
  check_binary_ops(x, Tensor::random(Shape{128}, rng));         // bias add
  check_binary_ops(x, Tensor::random(Shape{1, 96, 1}, rng));    // LayerNorm
  check_binary_ops(Tensor::random(Shape{4, 4, 96, 96}, rng),
                   Tensor::random(Shape{4, 1, 1, 96}, rng));    // attn mask
  check_binary_ops(x, x);                                       // residual
}

TEST(StridedBinary, ZeroSizedOperands) {
  Rng rng(1305);
  check_binary_ops(Tensor::random(Shape{0, 3}, rng), Tensor::random(Shape{3}, rng));
  check_binary_ops(Tensor::random(Shape{2, 0}, rng), Tensor::random(Shape{2, 1}, rng));
  check_binary_ops(Tensor::random(Shape{1}, rng), Tensor::random(Shape{4, 0, 2}, rng));
  EXPECT_EQ(add(Tensor::random(Shape{0, 3}, rng), Tensor::scalar(1.0f)).shape(),
            Shape({0, 3}));
}

// ---------------------------------------------------------------------------
// Pow.
// ---------------------------------------------------------------------------

TEST(StridedPow, ExponentTwoIsXTimesX) {
  Rng rng(1306);
  Tensor x = Tensor::random(Shape{4, 33}, rng, -8.0f, 8.0f);
  // An exact-tie input where powf(x, 2) and x * x can round differently.
  x.mutable_data()[0] = 0x1.001p-60f;
  for (const Shape& s : {Shape{}, Shape{1}, Shape{1, 1}, Shape{1, 1, 1}}) {
    const Tensor two = Tensor::full(s, 2.0f);
    const Tensor want = ref_binary(x, two, [](float v, float) { return v * v; });
    expect_bitwise(pow_op(x, two), want, "Pow(x, 2) exponent " + s.to_string());
  }
  EXPECT_EQ(pow_op(x, Tensor::full(Shape{1}, 2.0f)).at(0), 0x1.002p-120f);
}

TEST(StridedPow, OtherExponentsKeepStdPow) {
  Rng rng(1307);
  const Tensor x = Tensor::random(Shape{3, 17}, rng, 0.1f, 4.0f);
  auto std_pow = [](float v, float e) { return std::pow(v, e); };
  for (float e : {3.0f, 0.5f, -2.0f, 2.5f}) {
    const Tensor k = Tensor::full(Shape{1}, e);
    expect_bitwise(pow_op(x, k), ref_binary(x, k, std_pow),
                   str_cat("Pow exponent ", e));
  }
  // A non-scalar exponent keeps std::pow even where every entry is 2.
  const Tensor a(Shape{3}, {1.5f, 0x1.001p-60f, 3.0f});
  const Tensor twos(Shape{3}, {2.0f, 2.0f, 2.0f});
  expect_bitwise(pow_op(a, twos), ref_binary(a, twos, std_pow),
                 "Pow non-scalar exponent");
  // Broadcast exponents.
  for (int iter = 0; iter < 100; ++iter) {
    const auto out = random_dims(rng, static_cast<int>(rng.next_below(5)), true);
    const Tensor b = Tensor::random(broadcast_operand(rng, out), rng, 0.1f, 4.0f);
    const Tensor e = Tensor::random(broadcast_operand(rng, out), rng, -3.0f, 3.0f);
    expect_bitwise(pow_op(b, e), ref_binary(b, e, std_pow),
                   "Pow " + case_name(b.shape(), e.shape()));
  }
}

// ---------------------------------------------------------------------------
// Transpose.
// ---------------------------------------------------------------------------

TEST(StridedTranspose, AllRank4PermutationsMatchReferenceBitwise) {
  Rng rng(1308);
  for (const Shape& s : {Shape{2, 3, 4, 5}, Shape{1, 96, 4, 32}, Shape{3, 1, 4, 1},
                         Shape{2, 0, 3, 4}}) {
    const Tensor x = Tensor::random(s, rng);
    std::vector<int> perm = {0, 1, 2, 3};
    int count = 0;
    do {
      std::string what = s.to_string() + " perm";
      for (int p : perm) what += str_cat(" ", p);
      expect_bitwise(transpose(x, perm), ref_transpose(x, perm), what);
      ++count;
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(count, 24);
  }
}

TEST(StridedTranspose, RandomRanksMatchReferenceBitwise) {
  Rng rng(1309);
  for (int iter = 0; iter < 300; ++iter) {
    const int rank = static_cast<int>(rng.next_below(6));
    const Tensor x =
        Tensor::random(Shape(random_dims(rng, rank, /*zeros=*/true)), rng);
    std::vector<int> perm(static_cast<std::size_t>(rank));
    std::iota(perm.begin(), perm.end(), 0);
    for (int i = rank - 1; i > 0; --i) {
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    expect_bitwise(transpose(x, perm), ref_transpose(x, perm),
                   x.shape().to_string());
  }
}

// ---------------------------------------------------------------------------
// ReduceMean.
// ---------------------------------------------------------------------------

TEST(StridedReduceMean, AxisKindsMatchReferenceBitwise) {
  Rng rng(1310);
  const std::vector<std::vector<int>> axis_sets = {
      {3}, {2, 3}, {-1}, {0, 2}, {1, 3}, {-1, -3}, {1, 1}, {2, -2},
      {0, 1, 2, 3}, {}};
  for (const Shape& s : {Shape{2, 3, 4, 5}, Shape{1, 96, 1, 128}, Shape{3, 1, 7, 1},
                         Shape{2, 0, 3, 4}}) {
    const Tensor x = Tensor::random(s, rng);
    for (const auto& axes : axis_sets) {
      std::string what = s.to_string() + " axes";
      for (int a : axes) what += str_cat(" ", a);
      expect_bitwise(reduce_mean(x, axes), ref_reduce_mean(x, axes), what);
    }
  }
}

TEST(StridedReduceMean, RandomAxesMatchReferenceBitwise) {
  Rng rng(1311);
  for (int iter = 0; iter < 300; ++iter) {
    const int rank = static_cast<int>(rng.next_below(6));
    const Tensor x =
        Tensor::random(Shape(random_dims(rng, rank, /*zeros=*/true)), rng);
    std::vector<int> axes;
    for (int d = 0; d < rank; ++d) {
      if (rng.next_below(2) == 0) axes.push_back(rng.next_below(2) ? d : d - rank);
    }
    if (rank > 0 && rng.next_below(4) == 0) axes.push_back(axes.empty() ? 0 : axes[0]);
    expect_bitwise(reduce_mean(x, axes), ref_reduce_mean(x, axes),
                   x.shape().to_string());
  }
}

TEST(StridedReduceMean, BertLayerNormMean) {
  Rng rng(1312);
  const Tensor x = Tensor::random(Shape{4, 96, 128}, rng);
  expect_bitwise(reduce_mean(x, {-1}), ref_reduce_mean(x, {-1}), "[4,96,128] -1");
}

// ---------------------------------------------------------------------------
// The collapsed loop itself.
// ---------------------------------------------------------------------------

TEST(StridedLoop, CollapsesContiguousAndBroadcastDims) {
  // [1,96,128] + [128]: the size-1 dim drops, the bias is broadcast along 96.
  const auto bias = strided::collapse<2>({1, 96, 128},
                                         {{{0, 0}}, {{128, 0}}, {{1, 1}}});
  EXPECT_EQ(bias.dims, (std::vector<std::int64_t>{96, 128}));
  EXPECT_EQ(bias.run_strides(), (std::array<std::int64_t, 2>{1, 1}));
  // Identical shapes merge into one run.
  const auto same = strided::collapse<2>({2, 3, 4},
                                         {{{12, 12}}, {{4, 4}}, {{1, 1}}});
  EXPECT_EQ(same.dims, (std::vector<std::int64_t>{24}));
  // Transpose {0,2,1,3} of [1,96,4,32]: each run copies 32 contiguous floats.
  const auto tr = strided::collapse<1>({1, 4, 96, 32},
                                       {{{12288}}, {{32}}, {{128}}, {{1}}});
  EXPECT_EQ(tr.dims, (std::vector<std::int64_t>{4, 96, 32}));
  EXPECT_EQ(tr.run_strides()[0], 1);
  // All size-1 (or rank 0): a single run of length 1.
  EXPECT_EQ(strided::collapse<1>({1, 1}, {{{1}}, {{1}}}).run(), 1);
}

TEST(StridedLoop, ZeroExtentVisitsNothing) {
  const auto loop = strided::collapse<1>({3, 0, 2}, {{{0}}, {{2}}, {{1}}});
  int runs = 0;
  strided::for_each_run(loop, [&](const std::array<std::int64_t, 1>&) { ++runs; });
  EXPECT_EQ(runs, 0);
}

}  // namespace
}  // namespace ramiel

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

using ramiel::testing::expect_tensors_close;

/// Naive reference matmul for 2-D operands.
Tensor ref_matmul2d(const Tensor& a, const Tensor& b) {
  const std::int64_t M = a.shape().dim(0), K = a.shape().dim(1),
                     N = b.shape().dim(1);
  Tensor out = Tensor::zeros(Shape{M, N});
  auto da = a.data();
  auto db = b.data();
  auto d = out.mutable_data();
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      float acc = 0;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += da[static_cast<std::size_t>(m * K + k)] *
               db[static_cast<std::size_t>(k * N + n)];
      }
      d[static_cast<std::size_t>(m * N + n)] = acc;
    }
  }
  return out;
}

TEST(MatMul, TinyKnownValues) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  expect_tensors_close(matmul(a, b), Tensor(Shape{2, 2}, {19, 22, 43, 50}));
}

TEST(MatMul, MatchesReferenceOnRandom) {
  Rng rng(17);
  Tensor a = Tensor::random(Shape{7, 13}, rng);
  Tensor b = Tensor::random(Shape{13, 5}, rng);
  expect_tensors_close(matmul(a, b), ref_matmul2d(a, b), 1e-4f, 1e-4f);
}

TEST(MatMul, BatchedEqualBatchDims) {
  Rng rng(18);
  Tensor a = Tensor::random(Shape{2, 3, 4, 5}, rng);
  Tensor b = Tensor::random(Shape{2, 3, 5, 6}, rng);
  Tensor out = matmul(a, b);
  EXPECT_EQ(out.shape(), Shape({2, 3, 4, 6}));
  // Check one batch element against the 2-D reference.
  Tensor a0(Shape{4, 5},
            std::vector<float>(a.data().begin(), a.data().begin() + 20));
  Tensor b0(Shape{5, 6},
            std::vector<float>(b.data().begin(), b.data().begin() + 30));
  Tensor r0 = ref_matmul2d(a0, b0);
  for (std::int64_t i = 0; i < 24; ++i) {
    EXPECT_NEAR(out.at(i), r0.at(i), 1e-4f);
  }
}

TEST(MatMul, Rank2RhsBroadcastsOverBatch) {
  Rng rng(19);
  Tensor a = Tensor::random(Shape{3, 4, 5}, rng);
  Tensor w = Tensor::random(Shape{5, 2}, rng);
  Tensor out = matmul(a, w);
  EXPECT_EQ(out.shape(), Shape({3, 4, 2}));
}

TEST(MatMul, InnerDimMismatchThrows) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  Tensor b = Tensor::zeros(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(MatMul, ParallelMatchesSerial) {
  Rng rng(20);
  Tensor a = Tensor::random(Shape{16, 24}, rng);
  Tensor b = Tensor::random(Shape{24, 8}, rng);
  Tensor serial = matmul(a, b);
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  Tensor parallel = matmul(a, b, ctx);
  expect_tensors_close(serial, parallel);
}

TEST(Gemm, PlainWithBias) {
  Tensor a(Shape{1, 2}, {1, 2});
  Tensor b(Shape{2, 3}, {1, 0, 1, 0, 1, 1});
  Tensor bias = Tensor::vec({10, 20, 30});
  expect_tensors_close(gemm(a, b, bias), Tensor(Shape{1, 3}, {11, 22, 33}));
}

TEST(Gemm, TransposeFlags) {
  Rng rng(21);
  Tensor a = Tensor::random(Shape{4, 3}, rng);
  Tensor b = Tensor::random(Shape{5, 4}, rng);
  // (a^T) x (b^T): [3,4] x [4,5] = [3,5]
  Tensor out = gemm(a, b, std::nullopt, /*trans_a=*/true, /*trans_b=*/true);
  EXPECT_EQ(out.shape(), Shape({3, 5}));
  // Compare with materialized transposes.
  Tensor at = transpose(a, {1, 0});
  Tensor bt = transpose(b, {1, 0});
  expect_tensors_close(out, ref_matmul2d(at, bt), 1e-4f, 1e-4f);
}

TEST(Gemm, ScalarBiasBroadcast) {
  Tensor a(Shape{2, 2}, {1, 0, 0, 1});
  Tensor b(Shape{2, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::vec({100});
  Tensor out = gemm(a, b, bias);
  expect_tensors_close(out, Tensor(Shape{2, 2}, {101, 102, 103, 104}));
}

// ONNX Gemm broadcasts C unidirectionally to [M, N]. M == N here, so a
// bias classified by element count alone would be ambiguous.
TEST(Gemm, BiasBroadcastsByShape) {
  const Tensor a = Tensor::zeros(Shape{3, 2});
  const Tensor b = Tensor::zeros(Shape{2, 3});
  const struct {
    Tensor bias;
    std::vector<float> want;
  } cases[] = {
      {Tensor::vec({1, 2, 3}), {1, 2, 3, 1, 2, 3, 1, 2, 3}},
      {Tensor(Shape{1, 3}, {1, 2, 3}), {1, 2, 3, 1, 2, 3, 1, 2, 3}},
      {Tensor(Shape{3, 1}, {1, 2, 3}), {1, 1, 1, 2, 2, 2, 3, 3, 3}},
      {Tensor(Shape{3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
       {1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {Tensor::scalar(4), {4, 4, 4, 4, 4, 4, 4, 4, 4}},
      {Tensor(Shape{1, 1}, {4}), {4, 4, 4, 4, 4, 4, 4, 4, 4}},
  };
  for (kernels::Path path : {kernels::Path::kScalar, kernels::Path::kVector}) {
    kernels::force_kernel_path(path);
    for (const auto& c : cases) {
      expect_tensors_close(gemm(a, b, c.bias), Tensor(Shape{3, 3}, c.want));
    }
    // Larger than one register tile, so the vector path runs [M,1] through
    // the microkernel's write-back and [M,N] through its merge route.
    Rng rng(22);
    const Tensor x = Tensor::random(Shape{13, 5}, rng);
    const Tensor w = Tensor::random(Shape{5, 17}, rng);
    const Tensor rows = Tensor::random(Shape{13, 1}, rng);
    const Tensor full = Tensor::random(Shape{13, 17}, rng);
    const Tensor plain = gemm(x, w, std::nullopt);
    expect_tensors_close(gemm(x, w, rows), add(plain, rows), 1e-6f, 1e-6f);
    expect_tensors_close(gemm(x, w, full), add(plain, full), 1e-6f, 1e-6f);
  }
  kernels::force_kernel_path(std::nullopt);
}

TEST(Gemm, RejectsBiasThatDoesNotBroadcast) {
  const Tensor a = Tensor::zeros(Shape{3, 2});
  const Tensor b = Tensor::zeros(Shape{2, 4});
  for (const Tensor& bias :
       {Tensor::vec({1, 2, 3}), Tensor::zeros(Shape{4, 3}),
        Tensor::zeros(Shape{2, 4}), Tensor::zeros(Shape{1, 3, 4})}) {
    EXPECT_THROW(gemm(a, b, bias), Error) << bias.shape().to_string();
  }
}

TEST(Embedding, GathersRows) {
  Tensor table(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor ids(Shape{1, 2}, {2, 0});
  Tensor out = embedding(table, ids);
  EXPECT_EQ(out.shape(), Shape({1, 2, 2}));
  expect_tensors_close(out, Tensor(Shape{1, 2, 2}, {20, 21, 0, 1}));
}

}  // namespace
}  // namespace ramiel

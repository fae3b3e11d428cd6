#include <cmath>

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

using ramiel::testing::expect_tensors_close;

TEST(BatchNorm, IdentityParamsPassThrough) {
  Rng rng(3);
  Tensor x = Tensor::random(Shape{1, 3, 2, 2}, rng);
  Tensor ones = Tensor::full(Shape{3}, 1.0f);
  Tensor zeros = Tensor::zeros(Shape{3});
  Tensor out = batch_norm(x, ones, zeros, zeros, ones, /*eps=*/0.0f);
  expect_tensors_close(out, x, 1e-5f, 1e-5f);
}

TEST(BatchNorm, NormalizesWithGivenStats) {
  // x = 10 everywhere, mean 10, var 4 -> (10-10)/2 = 0, then *3 + 1 = 1.
  Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 10.0f);
  Tensor scale = Tensor::vec({3.0f});
  Tensor bias = Tensor::vec({1.0f});
  Tensor mean = Tensor::vec({10.0f});
  Tensor var = Tensor::vec({4.0f});
  Tensor out = batch_norm(x, scale, bias, mean, var, 0.0f);
  expect_tensors_close(out, Tensor::full(Shape{1, 1, 2, 2}, 1.0f));
}

TEST(BatchNorm, PerChannelStats) {
  Tensor x(Shape{1, 2, 1, 2}, {2, 4, 30, 50});
  Tensor scale = Tensor::vec({1.0f, 1.0f});
  Tensor bias = Tensor::vec({0.0f, 0.0f});
  Tensor mean = Tensor::vec({3.0f, 40.0f});
  Tensor var = Tensor::vec({1.0f, 100.0f});
  Tensor out = batch_norm(x, scale, bias, mean, var, 0.0f);
  expect_tensors_close(out, Tensor(Shape{1, 2, 1, 2}, {-1, 1, -1, 1}));
}

TEST(BatchNorm, RejectsWrongParamSize) {
  Tensor x = Tensor::zeros(Shape{1, 3, 2, 2});
  Tensor two = Tensor::zeros(Shape{2});
  EXPECT_THROW(batch_norm(x, two, two, two, two), Error);
}

TEST(LayerNorm, NormalizesLastDim) {
  Tensor x(Shape{1, 2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor scale = Tensor::full(Shape{4}, 1.0f);
  Tensor bias = Tensor::zeros(Shape{4});
  Tensor out = layer_norm(x, scale, bias, 0.0f);
  // Each row should have ~zero mean and ~unit variance.
  for (int row = 0; row < 2; ++row) {
    float mean = 0;
    for (int i = 0; i < 4; ++i) mean += out.at(row * 4 + i);
    EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
    float var = 0;
    for (int i = 0; i < 4; ++i) {
      var += out.at(row * 4 + i) * out.at(row * 4 + i);
    }
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-4f);
  }
}

TEST(LayerNorm, ScaleAndBiasApply) {
  Tensor x(Shape{1, 4}, {-1, 1, -1, 1});
  Tensor scale = Tensor::full(Shape{4}, 2.0f);
  Tensor bias = Tensor::full(Shape{4}, 5.0f);
  Tensor out = layer_norm(x, scale, bias, 0.0f);
  // x already zero-mean unit-var: out = 2*x + 5.
  expect_tensors_close(out, Tensor(Shape{1, 4}, {3, 7, 3, 7}), 1e-4f, 1e-4f);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  Tensor x = Tensor::random(Shape{3, 5}, rng, -3.0f, 3.0f);
  Tensor out = softmax(x, -1);
  for (int r = 0; r < 3; ++r) {
    float sum = 0;
    for (int c = 0; c < 5; ++c) sum += out.at(r * 5 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, KnownValues) {
  Tensor x(Shape{1, 2}, {0.0f, 0.0f});
  expect_tensors_close(softmax(x, -1), Tensor(Shape{1, 2}, {0.5f, 0.5f}));
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor x(Shape{1, 2}, {1000.0f, 1000.0f});
  Tensor out = softmax(x, -1);
  EXPECT_NEAR(out.at(0), 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(out.at(0)));
}

TEST(Softmax, NonLastAxis) {
  Tensor x(Shape{2, 2}, {0, 0, 0, 0});
  Tensor out = softmax(x, 0);
  expect_tensors_close(out, Tensor::full(Shape{2, 2}, 0.5f));
}

TEST(Softmax, ZeroExtentReturnsEmpty) {
  for (const Shape& s : {Shape{2, 0}, Shape{0, 3}, Shape{2, 0, 3}}) {
    for (int axis : {-1, 1}) {
      Tensor out = softmax(Tensor(s), axis);
      EXPECT_EQ(out.shape(), s);
      EXPECT_EQ(out.numel(), 0);
    }
  }
}

TEST(LayerNorm, ZeroExtentReturnsEmpty) {
  Tensor out = layer_norm(Tensor(Shape{2, 0}), Tensor(Shape{0}),
                          Tensor(Shape{0}), 1e-5f);
  EXPECT_EQ(out.shape(), Shape({2, 0}));
  Tensor rows = layer_norm(Tensor(Shape{0, 4}), Tensor::full(Shape{4}, 1.0f),
                           Tensor::zeros(Shape{4}), 1e-5f);
  EXPECT_EQ(rows.shape(), Shape({0, 4}));
}

TEST(ReduceMean, SingleAxisKeepdims) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor out = reduce_mean(x, {1});
  EXPECT_EQ(out.shape(), Shape({2, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1), 5.0f);
}

TEST(ReduceMean, MultipleAxes) {
  Tensor x(Shape{2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out = reduce_mean(x, {0, 2});
  EXPECT_EQ(out.shape(), Shape({1, 2, 1}));
  EXPECT_FLOAT_EQ(out.at(0), (1 + 2 + 5 + 6) / 4.0f);
  EXPECT_FLOAT_EQ(out.at(1), (3 + 4 + 7 + 8) / 4.0f);
}

TEST(ReduceMean, NegativeAxis) {
  Tensor x(Shape{2, 2}, {1, 3, 5, 7});
  Tensor out = reduce_mean(x, {-1});
  EXPECT_EQ(out.shape(), Shape({2, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1), 6.0f);
}

}  // namespace
}  // namespace ramiel

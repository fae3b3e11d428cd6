#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

using ramiel::testing::expect_tensors_close;

TEST(MaxPool, BasicTwoByTwo) {
  Tensor x(Shape{1, 1, 4, 4},
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Pool2dParams p;  // 2x2 stride 2
  expect_tensors_close(max_pool2d(x, p),
                       Tensor(Shape{1, 1, 2, 2}, {6, 8, 14, 16}));
}

TEST(MaxPool, RejectsKernelOrStrideBelowOne) {
  Tensor x = Tensor::full(Shape{1, 1, 4, 4}, 1.0f);
  Pool2dParams stride0;
  stride0.stride_h = 0;
  EXPECT_THROW(max_pool2d(x, stride0), Error);
  Pool2dParams kernel0;
  kernel0.kernel_w = 0;
  EXPECT_THROW(avg_pool2d(x, kernel0), Error);
}

TEST(MaxPool, PaddingIsNeutral) {
  // Padding contributes -inf; max over the window ignores it.
  Tensor x(Shape{1, 1, 2, 2}, {-5, -6, -7, -8});
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride_h = p.stride_w = 2;
  p.pad_h = p.pad_w = 1;
  Tensor out = max_pool2d(x, p);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 1}));
  EXPECT_EQ(out.at(0), -5.0f);
}

TEST(MaxPool, OverlappingWindows) {
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 2;
  p.stride_h = p.stride_w = 1;
  expect_tensors_close(max_pool2d(x, p),
                       Tensor(Shape{1, 1, 2, 2}, {5, 6, 8, 9}));
}

TEST(AvgPool, BasicAverage) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Pool2dParams p;  // 2x2 stride 2
  Tensor out = avg_pool2d(x, p);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 2.5f);
}

TEST(AvgPool, CountExcludesPaddingByDefault) {
  Tensor x(Shape{1, 1, 1, 1}, {8.0f});
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride_h = p.stride_w = 1;
  p.pad_h = p.pad_w = 1;
  Tensor out = avg_pool2d(x, p);
  EXPECT_FLOAT_EQ(out.at(0), 8.0f);  // one valid element / count 1
  p.count_include_pad = true;
  Tensor out2 = avg_pool2d(x, p);
  EXPECT_FLOAT_EQ(out2.at(0), 8.0f / 9.0f);
}

TEST(GlobalAvgPool, AveragesWholeFeatureMap) {
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor out = global_avg_pool(x);
  EXPECT_EQ(out.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(1), 25.0f);
}

TEST(Pooling, ParallelMatchesSerial) {
  Rng rng(13);
  Tensor x = Tensor::random(Shape{2, 6, 12, 12}, rng);
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride_h = p.stride_w = 2;
  p.pad_h = p.pad_w = 1;
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  expect_tensors_close(max_pool2d(x, p), max_pool2d(x, p, ctx));
  expect_tensors_close(avg_pool2d(x, p), avg_pool2d(x, p, ctx));
  expect_tensors_close(global_avg_pool(x), global_avg_pool(x, ctx));
}

TEST(Pooling, RejectsEmptyOutput) {
  Tensor x = Tensor::zeros(Shape{1, 1, 2, 2});
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 5;
  p.stride_h = p.stride_w = 1;
  EXPECT_THROW(max_pool2d(x, p), Error);
}

}  // namespace
}  // namespace ramiel

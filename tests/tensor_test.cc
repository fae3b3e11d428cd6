#include <gtest/gtest.h>

#include <limits>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/tensor.h"

namespace ramiel {
namespace {

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros(Shape{2, 2});
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::full(Shape{3}, 1.5f);
  for (float v : f.data()) EXPECT_EQ(v, 1.5f);
}

TEST(Tensor, ScalarAndVec) {
  Tensor s = Tensor::scalar(2.5f);
  EXPECT_EQ(s.shape().rank(), 0);
  EXPECT_EQ(s.at(0), 2.5f);
  Tensor v = Tensor::vec({1, 2, 3});
  EXPECT_EQ(v.shape(), Shape({3}));
  EXPECT_EQ(v.at(2), 3.0f);
}

TEST(Tensor, ConstructFromDataChecksSize) {
  EXPECT_NO_THROW(Tensor(Shape{2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor(Shape{2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, CopyIsShallow) {
  Tensor a = Tensor::full(Shape{4}, 1.0f);
  Tensor b = a;
  EXPECT_TRUE(a.shares_storage_with(b));
  Tensor c = a.clone();
  EXPECT_FALSE(a.shares_storage_with(c));
  EXPECT_TRUE(allclose(a, c));
}

TEST(Tensor, ReshapedSharesStorage) {
  Tensor a = Tensor::full(Shape{2, 6}, 3.0f);
  Tensor b = a.reshaped(Shape{3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), Shape({3, 4}));
  EXPECT_THROW(a.reshaped(Shape{5}), Error);
}

TEST(Tensor, RandomIsDeterministic) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::random(Shape{8}, r1);
  Tensor b = Tensor::random(Shape{8}, r2);
  EXPECT_TRUE(allclose(a, b));
}

TEST(Tensor, RandomRespectsRange) {
  Rng rng(3);
  Tensor t = Tensor::random(Shape{1000}, rng, 0.5f, 0.75f);
  for (float v : t.data()) {
    EXPECT_GE(v, 0.5f);
    EXPECT_LT(v, 0.75f);
  }
}

TEST(Tensor, DefaultConstructedHasZeroCapacity) {
  // Regression: the default tensor used to carry a zero-filled scalar-sized
  // buffer; it must be truly empty (shape [0], no storage at all) so
  // placeholder tensors in hot runtime maps cost nothing.
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.data().empty());
  EXPECT_TRUE(t.mutable_data().empty());
  EXPECT_TRUE(t.owns_storage());
  EXPECT_EQ(t.shape(), Shape{0});
}

TEST(Tensor, CloneDetachesToOwningStorage) {
  Tensor a = Tensor::vec({1.0f, 2.0f, 3.0f});
  Tensor view = Tensor::from_external(Shape{3},
                                      const_cast<float*>(a.data().data()), 3);
  EXPECT_FALSE(view.owns_storage());
  EXPECT_TRUE(view.shares_storage_with(a));
  Tensor c = view.clone();
  EXPECT_TRUE(c.owns_storage());
  EXPECT_FALSE(c.shares_storage_with(a));
  EXPECT_TRUE(allclose(a, c));
}

TEST(Allclose, DetectsShapeAndValueMismatch) {
  Tensor a = Tensor::full(Shape{2}, 1.0f);
  Tensor b = Tensor::full(Shape{2}, 1.0f + 1e-7f);
  EXPECT_TRUE(allclose(a, b));
  Tensor c = Tensor::full(Shape{2}, 1.1f);
  EXPECT_FALSE(allclose(a, c));
  Tensor d = Tensor::full(Shape{3}, 1.0f);
  EXPECT_FALSE(allclose(a, d));
}

TEST(Allclose, RelativeToleranceScalesWithMagnitude) {
  Tensor a = Tensor::full(Shape{1}, 1000.0f);
  Tensor b = Tensor::full(Shape{1}, 1000.5f);
  EXPECT_TRUE(allclose(a, b, /*atol=*/0.0f, /*rtol=*/1e-3f));
  EXPECT_FALSE(allclose(a, b, /*atol=*/0.0f, /*rtol=*/1e-6f));
}

TEST(Allclose, NanIsNeverClose) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor zero = Tensor::full(Shape{2}, 0.0f);
  const Tensor has_nan(Shape{2}, {0.0f, nan});
  EXPECT_FALSE(allclose(has_nan, zero, 1.0f, 1.0f));
  EXPECT_FALSE(allclose(zero, has_nan, 1.0f, 1.0f));
  EXPECT_FALSE(allclose(has_nan, has_nan));
  const Tensor pos_inf = Tensor::full(Shape{1}, inf);
  EXPECT_TRUE(allclose(pos_inf, pos_inf));
  EXPECT_FALSE(allclose(pos_inf, Tensor::full(Shape{1}, -inf)));
}

}  // namespace
}  // namespace ramiel

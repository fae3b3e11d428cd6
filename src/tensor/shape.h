// Tensor shape: an ordered list of dimension extents. Shapes are value types
// and are cheap to copy for the ranks seen in ML graphs (<= 5).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace ramiel {

/// Dimension extents of a dense tensor. Rank 0 denotes a scalar.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {}

  /// Number of dimensions.
  int rank() const { return static_cast<int>(dims_.size()); }

  /// Extent of dimension `i`; negative `i` counts from the back.
  std::int64_t dim(int i) const;

  /// Total number of elements (1 for scalars).
  std::int64_t numel() const;

  /// Mutable/const access to the raw dims.
  std::vector<std::int64_t>& dims() { return dims_; }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// The most elements a shape read from a model file may describe. No
  /// model this runtime can hold comes near it, and past it the counts
  /// taken from a shape (numel, strides, inner/outer products) overflow.
  static constexpr std::int64_t kMaxElements = std::int64_t{1} << 40;

  /// True when the product of the nonzero extents is at most kMaxElements,
  /// so every product over a subset of the dims fits. Extents must be >= 0.
  bool within_element_limit() const;

  /// Row-major strides (in elements) for this shape.
  std::vector<std::int64_t> strides() const;

  /// Canonicalizes an axis index (allows negatives); throws on out-of-range.
  int normalize_axis(int axis) const;

  bool operator==(const Shape& o) const { return dims_ == o.dims_; }
  bool operator!=(const Shape& o) const { return dims_ != o.dims_; }

  /// "[1, 64, 56, 56]"
  std::string to_string() const;

 private:
  std::vector<std::int64_t> dims_;
};

}  // namespace ramiel

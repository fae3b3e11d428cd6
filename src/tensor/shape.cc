#include "tensor/shape.h"

#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {

std::int64_t Shape::dim(int i) const {
  int r = rank();
  if (i < 0) i += r;
  RAMIEL_CHECK(i >= 0 && i < r, str_cat("dim index ", i, " out of range for rank ", r));
  return dims_[static_cast<std::size_t>(i)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (std::int64_t d : dims_) n *= d;
  return n;
}

bool Shape::within_element_limit() const {
  std::int64_t n = 1;
  for (std::int64_t d : dims_) {
    if (d == 0) continue;  // a zero would hide the dims after it
    if (n > kMaxElements / d) return false;
    n *= d;
  }
  return true;
}

std::vector<std::int64_t> Shape::strides() const {
  std::vector<std::int64_t> s(dims_.size());
  std::int64_t acc = 1;
  for (int i = rank() - 1; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = acc;
    acc *= dims_[static_cast<std::size_t>(i)];
  }
  return s;
}

int Shape::normalize_axis(int axis) const {
  int r = rank();
  if (axis < 0) axis += r;
  RAMIEL_CHECK(axis >= 0 && axis < r,
               str_cat("axis ", axis, " out of range for rank ", r));
  return axis;
}

std::string Shape::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(dims_[i]);
  }
  out += "]";
  return out;
}

}  // namespace ramiel

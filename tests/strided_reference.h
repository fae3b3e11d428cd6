// Reference loops for the strided-run and element-wise kernel tests: the
// per-element odometer loops the broadcast binary ops and reduce_mean ran
// before the strided-run kernels, kept as the oracle, plus the bitwise
// comparison and the random broadcast shapes those tests draw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "tensor/tensor.h"

namespace ramiel::testing {

// NumPy's rule: an extent of 1 takes the other side's extent, even 0.
inline Shape ref_broadcast_shape(const Shape& a, const Shape& b) {
  int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    dims[static_cast<std::size_t>(rank - 1 - i)] = da == 1 ? db : da;
  }
  return Shape(std::move(dims));
}

template <typename F>
inline Tensor ref_binary(const Tensor& a, const Tensor& b, F f) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    auto da = a.data();
    auto db = b.data();
    auto dst = out.mutable_data();
    for (std::size_t i = 0; i < da.size(); ++i) dst[i] = f(da[i], db[i]);
    return out;
  }
  Shape os = ref_broadcast_shape(a.shape(), b.shape());
  Tensor out(os);
  const int rank = os.rank();
  auto eff = [&](const Shape& s) {
    std::vector<std::int64_t> st(static_cast<std::size_t>(rank), 0);
    auto real = s.strides();
    for (int i = 0; i < s.rank(); ++i) {
      int oi = rank - s.rank() + i;
      st[static_cast<std::size_t>(oi)] =
          s.dim(i) == 1 ? 0 : real[static_cast<std::size_t>(i)];
    }
    return st;
  };
  auto sa = eff(a.shape());
  auto sb = eff(b.shape());
  auto da = a.data();
  auto db = b.data();
  auto dst = out.mutable_data();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(rank), 0);
  const std::int64_t n = os.numel();
  std::int64_t offa = 0, offb = 0;
  for (std::int64_t flat = 0; flat < n; ++flat) {
    dst[static_cast<std::size_t>(flat)] =
        f(da[static_cast<std::size_t>(offa)], db[static_cast<std::size_t>(offb)]);
    for (int d = rank - 1; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      ++idx[ud];
      offa += sa[ud];
      offb += sb[ud];
      if (idx[ud] < os.dim(d)) break;
      offa -= sa[ud] * os.dim(d);
      offb -= sb[ud] * os.dim(d);
      idx[ud] = 0;
    }
  }
  return out;
}

inline Tensor ref_reduce_mean(const Tensor& x,
                              const std::vector<int>& axes) {
  const Shape& xs = x.shape();
  std::vector<bool> reduced(static_cast<std::size_t>(xs.rank()), false);
  for (int a : axes) {
    reduced[static_cast<std::size_t>(xs.normalize_axis(a))] = true;
  }
  std::vector<std::int64_t> out_dims;
  std::int64_t reduce_count = 1;
  for (int i = 0; i < xs.rank(); ++i) {
    if (reduced[static_cast<std::size_t>(i)]) {
      out_dims.push_back(1);
      reduce_count *= xs.dim(i);
    } else {
      out_dims.push_back(xs.dim(i));
    }
  }
  Shape os(std::move(out_dims));
  Tensor out = Tensor::zeros(os);
  auto in = x.data();
  auto dst = out.mutable_data();
  const auto out_strides = os.strides();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(xs.rank()), 0);
  const std::int64_t n = xs.numel();
  for (std::int64_t flat = 0; flat < n; ++flat) {
    std::int64_t oflat = 0;
    for (int d = 0; d < xs.rank(); ++d) {
      auto ud = static_cast<std::size_t>(d);
      if (!reduced[ud]) oflat += idx[ud] * out_strides[ud];
    }
    dst[static_cast<std::size_t>(oflat)] += in[static_cast<std::size_t>(flat)];
    for (int d = xs.rank() - 1; d >= 0; --d) {
      auto ud = static_cast<std::size_t>(d);
      if (++idx[ud] < xs.dim(d)) break;
      idx[ud] = 0;
    }
  }
  const float inv = 1.0f / static_cast<float>(reduce_count);
  for (float& v : dst) v *= inv;
  return out;
}

inline void expect_bitwise(const Tensor& got, const Tensor& want,
                           const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  auto g = got.data();
  auto w = want.data();
  ASSERT_EQ(g.size(), w.size()) << what;
  if (g.empty()) return;  // memcmp's pointers must be non-null
  EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0)
      << what;
}

/// Random extents in [1, 5]; about a quarter are 1 and, when `zeros` is set,
/// about one in twelve is 0.
inline std::vector<std::int64_t> random_dims(Rng& rng, int rank,
                                             bool zeros) {
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
  for (auto& d : dims) {
    d = static_cast<std::int64_t>(rng.next_below(5)) + 1;
    if (rng.next_below(4) == 0) d = 1;
    if (zeros && rng.next_below(12) == 0) d = 0;
  }
  return dims;
}

/// A shape broadcastable to `out`: a random trailing suffix of it with some
/// extents replaced by 1.
inline Shape broadcast_operand(Rng& rng,
                               const std::vector<std::int64_t>& out) {
  const auto rank = static_cast<std::size_t>(rng.next_below(out.size() + 1));
  std::vector<std::int64_t> dims(out.end() - static_cast<std::ptrdiff_t>(rank),
                                 out.end());
  for (auto& d : dims) {
    if (rng.next_below(3) == 0) d = 1;
  }
  return Shape(std::move(dims));
}

}  // namespace ramiel::testing

#include <array>
#include <utility>

#include "support/check.h"
#include "tensor/kernels/elementwise_runs.h"
#include "tensor/ops.h"
#include "tensor/strided_loop.h"

namespace ramiel {

Tensor reduce_mean(const Tensor& x, const std::vector<int>& axes) {
  const Shape& xs = x.shape();
  std::vector<bool> reduced(static_cast<std::size_t>(xs.rank()), false);
  for (int a : axes) {
    reduced[static_cast<std::size_t>(xs.normalize_axis(a))] = true;
  }
  std::vector<std::int64_t> out_dims;
  out_dims.reserve(static_cast<std::size_t>(xs.rank()));
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

  // Walk the input in row-major order; input dim d advances the output by
  // its stride there, 0 along reduced dims. Each output thus sums its inputs
  // in input order starting from +0.0f. A kept innermost run is contiguous
  // in the output (every dim after it has extent 1).
  const auto out_strides = os.strides();
  std::vector<std::array<std::int64_t, 1>> strides(
      static_cast<std::size_t>(xs.rank()));
  for (std::size_t d = 0; d < strides.size(); ++d) {
    strides[d] = {reduced[d] ? 0 : out_strides[d]};
  }
  const auto loop = strided::collapse(xs.dims(), strides);
  const std::int64_t n = loop.run();
  const bool reduced_run = loop.run_strides()[0] == 0;
  const float* p = x.data().data();
  auto dst = out.mutable_data();
  const float inv = 1.0f / static_cast<float>(reduce_count);
  // The reduced axes are innermost and contiguous (LayerNorm's mean): one
  // row of n inputs per output, rows adjacent in the output.
  if (reduced_run && (loop.dims.size() < 2 ||
                      (loop.dims.size() == 2 && loop.strides[0][0] == 1))) {
    const std::int64_t rows = loop.dims.size() == 2 ? loop.dims[0] : 1;
    kernels::ewise::active().row_means(p, dst.data(), rows, n, inv);
    return out;
  }
  strided::for_each_run(loop, [&](const std::array<std::int64_t, 1>& off) {
    float* o = dst.data() + off[0];
    if (reduced_run) {
      float acc = *o;
      for (std::int64_t i = 0; i < n; ++i) acc += p[i];
      *o = acc;
    } else {
      for (std::int64_t i = 0; i < n; ++i) o[i] += p[i];
    }
    p += n;
  });
  for (float& v : dst) v *= inv;
  return out;
}

}  // namespace ramiel

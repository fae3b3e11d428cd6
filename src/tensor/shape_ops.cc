#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.h"
#include "support/string_util.h"
#include "tensor/ops.h"
#include "tensor/strided_loop.h"

namespace ramiel {

Tensor concat(const std::vector<Tensor>& inputs, int axis) {
  RAMIEL_CHECK(!inputs.empty(), "concat requires at least one input");
  const Shape& first = inputs[0].shape();
  const int ax = first.normalize_axis(axis);
  std::int64_t axis_total = 0;
  for (const Tensor& t : inputs) {
    RAMIEL_CHECK(t.shape().rank() == first.rank(), "concat rank mismatch");
    for (int d = 0; d < first.rank(); ++d) {
      if (d == ax) continue;
      RAMIEL_CHECK(t.shape().dim(d) == first.dim(d),
                   str_cat("concat dim mismatch on axis ", d, ": ",
                           t.shape().to_string(), " vs ", first.to_string()));
    }
    axis_total += t.shape().dim(ax);
  }
  std::vector<std::int64_t> out_dims = first.dims();
  out_dims[static_cast<std::size_t>(ax)] = axis_total;
  Tensor out{Shape(std::move(out_dims))};

  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < ax; ++d) outer *= first.dim(d);
  for (int d = ax + 1; d < first.rank(); ++d) inner *= first.dim(d);

  auto dst = out.mutable_data();
  std::int64_t dst_axis_off = 0;
  for (const Tensor& t : inputs) {
    const std::int64_t axn = t.shape().dim(ax);
    auto src = t.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      std::copy(src.data() + o * axn * inner, src.data() + (o + 1) * axn * inner,
                dst.data() + (o * axis_total + dst_axis_off) * inner);
    }
    dst_axis_off += axn;
  }
  return out;
}

Tensor slice(const Tensor& x, int axis, std::int64_t begin, std::int64_t end) {
  return strided_slice(x, axis, begin, end, 1);
}

Tensor strided_slice(const Tensor& x, int axis, std::int64_t begin,
                     std::int64_t end, std::int64_t step) {
  const Shape& xs = x.shape();
  const int ax = xs.normalize_axis(axis);
  const std::int64_t dim = xs.dim(ax);
  if (begin < 0) begin += dim;
  if (end < 0) end += dim;
  begin = std::clamp<std::int64_t>(begin, 0, dim);
  end = std::clamp<std::int64_t>(end, 0, dim);
  RAMIEL_CHECK(step >= 1, "slice step must be >= 1");
  const std::int64_t count = begin < end ? (end - begin + step - 1) / step : 0;

  std::vector<std::int64_t> out_dims = xs.dims();
  out_dims[static_cast<std::size_t>(ax)] = count;
  Tensor out{Shape(std::move(out_dims))};

  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < ax; ++d) outer *= xs.dim(d);
  for (int d = ax + 1; d < xs.rank(); ++d) inner *= xs.dim(d);

  auto src = x.data();
  auto dst = out.mutable_data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t si = begin + i * step;
      std::copy(src.data() + (o * dim + si) * inner,
                src.data() + (o * dim + si + 1) * inner,
                dst.data() + (o * count + i) * inner);
    }
  }
  return out;
}

Tensor gather(const Tensor& x, const Tensor& indices, int axis) {
  const Shape& xs = x.shape();
  const int ax = xs.normalize_axis(axis);
  const std::int64_t dim = xs.dim(ax);

  std::vector<std::int64_t> out_dims;
  for (int d = 0; d < ax; ++d) out_dims.push_back(xs.dim(d));
  for (std::int64_t d : indices.shape().dims()) out_dims.push_back(d);
  for (int d = ax + 1; d < xs.rank(); ++d) out_dims.push_back(xs.dim(d));
  Tensor out{Shape(std::move(out_dims))};

  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < ax; ++d) outer *= xs.dim(d);
  for (int d = ax + 1; d < xs.rank(); ++d) inner *= xs.dim(d);
  const std::int64_t nidx = indices.numel();

  auto src = x.data();
  auto idx = indices.data();
  auto dst = out.mutable_data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < nidx; ++i) {
      std::int64_t j = static_cast<std::int64_t>(std::llround(idx[static_cast<std::size_t>(i)]));
      if (j < 0) j += dim;
      RAMIEL_CHECK(j >= 0 && j < dim,
                   str_cat("gather index ", j, " out of range for dim ", dim));
      std::copy(src.data() + (o * dim + j) * inner,
                src.data() + (o * dim + j + 1) * inner,
                dst.data() + (o * nidx + i) * inner);
    }
  }
  return out;
}

Tensor transpose(const Tensor& x, const std::vector<int>& perm) {
  const Shape& xs = x.shape();
  RAMIEL_CHECK(static_cast<int>(perm.size()) == xs.rank(),
               "transpose perm size must equal rank");
  std::vector<bool> seen(perm.size(), false);
  std::vector<std::int64_t> out_dims(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const int p = perm[i];
    RAMIEL_CHECK(p >= 0 && p < xs.rank() && !seen[static_cast<std::size_t>(p)],
                 "transpose perm must be a permutation");
    seen[static_cast<std::size_t>(p)] = true;
    out_dims[i] = xs.dim(p);
  }
  Shape os(std::move(out_dims));
  Tensor out{os};

  // Walk the output in row-major order; output dim d reads the input along
  // perm[d], so dims that stay adjacent in the input merge into one run.
  const auto in_strides = xs.strides();
  std::vector<std::array<std::int64_t, 1>> strides(perm.size());
  for (std::size_t d = 0; d < perm.size(); ++d) {
    strides[d] = {in_strides[static_cast<std::size_t>(perm[d])]};
  }
  const auto loop = strided::collapse(os.dims(), strides);
  const std::int64_t n = loop.run();
  const std::int64_t s = loop.run_strides()[0];
  const float* src = x.data().data();
  float* o = out.mutable_data().data();
  strided::for_each_run(loop, [&](const std::array<std::int64_t, 1>& off) {
    const float* p = src + off[0];
    if (s == 1) {
      std::copy(p, p + n, o);
    } else {
      for (std::int64_t i = 0; i < n; ++i) o[i] = p[i * s];
    }
    o += n;
  });
  return out;
}

Tensor reshape(const Tensor& x, const std::vector<std::int64_t>& new_dims) {
  std::vector<std::int64_t> dims = new_dims;
  std::int64_t known = 1;
  int wildcard = -1;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      RAMIEL_CHECK(wildcard < 0, "reshape allows at most one -1 dim");
      wildcard = static_cast<int>(i);
    } else if (dims[i] == 0) {
      // ONNX semantics: 0 copies the corresponding input dim.
      RAMIEL_CHECK(static_cast<int>(i) < x.shape().rank(),
                   "reshape 0-dim has no matching input dim");
      dims[i] = x.shape().dim(static_cast<int>(i));
      known *= dims[i];
    } else {
      known *= dims[i];
    }
  }
  if (wildcard >= 0) {
    RAMIEL_CHECK(known != 0 && x.numel() % known == 0,
                 "reshape wildcard does not divide element count");
    dims[static_cast<std::size_t>(wildcard)] = x.numel() / known;
  }
  return x.reshaped(Shape(std::move(dims)));
}

Tensor flatten(const Tensor& x, int axis) {
  const Shape& xs = x.shape();
  RAMIEL_CHECK(axis >= 0 && axis <= xs.rank(), "flatten axis out of range");
  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < axis; ++d) outer *= xs.dim(d);
  for (int d = axis; d < xs.rank(); ++d) inner *= xs.dim(d);
  return x.reshaped(Shape{outer, inner});
}

Tensor shape_of(const Tensor& x) {
  std::vector<float> dims;
  dims.reserve(static_cast<std::size_t>(x.shape().rank()));
  for (std::int64_t d : x.shape().dims()) dims.push_back(static_cast<float>(d));
  return Tensor::vec(std::move(dims));
}

Tensor embedding(const Tensor& table, const Tensor& ids) {
  RAMIEL_CHECK(table.shape().rank() == 2, "embedding table must be [V, D]");
  return gather(table, ids, /*axis=*/0);
}

}  // namespace ramiel

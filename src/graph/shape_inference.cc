#include "graph/shape_inference.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/string_util.h"
#include "tensor/ops.h"

namespace ramiel {
namespace {

// We reserve the empty (rank-0) shape as "unknown". True scalars only occur
// as constants, which always carry explicit shapes from their Tensor.
bool known(const Value& v) { return v.shape.rank() > 0 || v.is_constant(); }

std::optional<Shape> broadcast(const Shape& a, const Shape& b) {
  int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    if (da != db && da != 1 && db != 1) return std::nullopt;
    dims[static_cast<std::size_t>(rank - 1 - i)] = da == 1 ? db : da;
  }
  return Shape(std::move(dims));
}

/// Infers the output shapes of one node. Returns empty vector when the
/// shape cannot (yet) be determined statically.
std::vector<Shape> infer_node(const Graph& g, const Node& n) {
  auto in_shape = [&](std::size_t i) -> const Shape& {
    return g.value(n.inputs[i]).shape;
  };
  auto in_known = [&](std::size_t i) {
    return i < n.inputs.size() && known(g.value(n.inputs[i]));
  };
  // Window extents, strides and dilations divide or scale the output
  // extent; anything below 1 is a malformed model, not a shape.
  auto require_positive = [&](const char* attr, std::int64_t v) {
    RAMIEL_CHECK(v >= 1, str_cat(op_kind_name(n.kind), " node '", n.name,
                                 "': ", attr, " must be >= 1, got ", v));
  };
  auto in_const = [&](std::size_t i) -> const Tensor* {
    if (i >= n.inputs.size()) return nullptr;
    const Value& v = g.value(n.inputs[i]);
    return v.const_data ? &*v.const_data : nullptr;
  };

  switch (n.kind) {
    case OpKind::kConstant: {
      const Value& out = g.value(n.outputs[0]);
      RAMIEL_CHECK(out.is_constant(), "Constant node output must carry data");
      return {out.const_data->shape()};
    }
    case OpKind::kConv2d: {
      if (!in_known(0) || !in_known(1)) return {};
      const Shape& is = in_shape(0);
      const Shape& ws = in_shape(1);
      if (is.rank() != 4 || ws.rank() != 4) return {};
      const std::int64_t stride = n.attrs.get_int("stride", 1);
      const std::int64_t pad = n.attrs.get_int("pad", 0);
      const std::int64_t dil = n.attrs.get_int("dilation", 1);
      const std::int64_t R = ws.dim(2), S = ws.dim(3);
      require_positive("stride", stride);
      require_positive("dilation", dil);
      require_positive("kernel height", R);
      require_positive("kernel width", S);
      const std::int64_t OH = (is.dim(2) + 2 * pad - dil * (R - 1) - 1) / stride + 1;
      const std::int64_t OW = (is.dim(3) + 2 * pad - dil * (S - 1) - 1) / stride + 1;
      return {Shape{is.dim(0), ws.dim(0), OH, OW}};
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      if (is.rank() != 4) return {};
      const std::int64_t k = n.attrs.get_int("kernel");
      const std::int64_t stride = n.attrs.get_int("stride", k);
      const std::int64_t pad = n.attrs.get_int("pad", 0);
      require_positive("kernel", k);
      require_positive("stride", stride);
      const std::int64_t OH = (is.dim(2) + 2 * pad - k) / stride + 1;
      const std::int64_t OW = (is.dim(3) + 2 * pad - k) / stride + 1;
      return {Shape{is.dim(0), is.dim(1), OH, OW}};
    }
    case OpKind::kGlobalAvgPool: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      if (is.rank() != 4) return {};
      return {Shape{is.dim(0), is.dim(1), 1, 1}};
    }
    case OpKind::kResize: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      if (is.rank() != 4) return {};
      const std::int64_t s = n.attrs.get_int("scale");
      return {Shape{is.dim(0), is.dim(1), is.dim(2) * s, is.dim(3) * s}};
    }
    case OpKind::kMatMul: {
      if (!in_known(0) || !in_known(1)) return {};
      const Shape& a = in_shape(0);
      const Shape& b = in_shape(1);
      if (a.rank() < 2 || b.rank() < 2) return {};
      const int brank = std::max(a.rank(), b.rank()) - 2;
      std::vector<std::int64_t> dims;
      for (int i = brank - 1; i >= 0; --i) {
        std::int64_t da = (i < a.rank() - 2) ? a.dim(a.rank() - 3 - i) : 1;
        std::int64_t db = (i < b.rank() - 2) ? b.dim(b.rank() - 3 - i) : 1;
        dims.push_back(std::max(da, db));
      }
      dims.push_back(a.dim(-2));
      dims.push_back(b.dim(-1));
      return {Shape(std::move(dims))};
    }
    case OpKind::kGemm: {
      if (!in_known(0) || !in_known(1)) return {};
      const bool ta = n.attrs.get_int("trans_a", 0) != 0;
      const bool tb = n.attrs.get_int("trans_b", 0) != 0;
      const Shape& a = in_shape(0);
      const Shape& b = in_shape(1);
      const Shape out{ta ? a.dim(1) : a.dim(0), tb ? b.dim(0) : b.dim(1)};
      if (in_known(2)) {
        RAMIEL_CHECK(gemm_bias_broadcasts(in_shape(2), out.dim(0), out.dim(1)),
                     str_cat("Gemm node '", n.name, "': bias ",
                             in_shape(2).to_string(), " does not broadcast to ",
                             out.to_string()));
      }
      return {out};
    }
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kPow: {
      if (!in_known(0) || !in_known(1)) return {};
      auto s = broadcast(in_shape(0), in_shape(1));
      if (!s) return {};
      return {*s};
    }
    case OpKind::kBatchNorm:
    case OpKind::kLayerNorm:
    case OpKind::kSoftmax:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kSilu:
    case OpKind::kTanh:
    case OpKind::kGelu:
    case OpKind::kErf:
    case OpKind::kSqrt:
    case OpKind::kExp:
    case OpKind::kNeg:
    case OpKind::kIdentity: {
      if (!in_known(0)) return {};
      return {in_shape(0)};
    }
    case OpKind::kReduceMean: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      std::vector<std::int64_t> dims = is.dims();
      for (std::int64_t a : n.attrs.get_ints("axes")) {
        int ax = is.normalize_axis(static_cast<int>(a));
        dims[static_cast<std::size_t>(ax)] = 1;
      }
      return {Shape(std::move(dims))};
    }
    case OpKind::kConcat: {
      const int nin = static_cast<int>(n.inputs.size());
      for (int i = 0; i < nin; ++i) {
        if (!in_known(static_cast<std::size_t>(i))) return {};
      }
      const Shape& first = in_shape(0);
      const int ax = first.normalize_axis(
          static_cast<int>(n.attrs.get_int("axis")));
      std::vector<std::int64_t> dims = first.dims();
      std::int64_t total = 0;
      for (int i = 0; i < nin; ++i) {
        total += in_shape(static_cast<std::size_t>(i)).dim(ax);
      }
      dims[static_cast<std::size_t>(ax)] = total;
      return {Shape(std::move(dims))};
    }
    case OpKind::kSlice: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      const int ax = is.normalize_axis(static_cast<int>(n.attrs.get_int("axis")));
      std::int64_t begin = n.attrs.get_int("begin");
      std::int64_t end = n.attrs.get_int("end");
      const std::int64_t step = n.attrs.get_int("step", 1);
      RAMIEL_CHECK(step >= 1, str_cat("Slice node '", n.name,
                                      "': step must be >= 1, got ", step));
      const std::int64_t dim = is.dim(ax);
      if (begin < 0) begin += dim;
      if (end < 0) end += dim;
      begin = std::clamp<std::int64_t>(begin, 0, dim);
      end = std::clamp<std::int64_t>(end, 0, dim);
      std::vector<std::int64_t> dims = is.dims();
      dims[static_cast<std::size_t>(ax)] =
          begin < end ? (end - begin + step - 1) / step : 0;
      return {Shape(std::move(dims))};
    }
    case OpKind::kGather: {
      if (!in_known(0) || !in_known(1)) return {};
      const Shape& is = in_shape(0);
      const Shape& idx = in_shape(1);
      const int ax = is.normalize_axis(static_cast<int>(n.attrs.get_int("axis", 0)));
      std::vector<std::int64_t> dims;
      for (int d = 0; d < ax; ++d) dims.push_back(is.dim(d));
      for (std::int64_t d : idx.dims()) dims.push_back(d);
      for (int d = ax + 1; d < is.rank(); ++d) dims.push_back(is.dim(d));
      return {Shape(std::move(dims))};
    }
    case OpKind::kTranspose: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      const auto& perm = n.attrs.get_ints("perm");
      if (static_cast<int>(perm.size()) != is.rank()) return {};
      std::vector<bool> seen(perm.size(), false);
      std::vector<std::int64_t> dims;
      dims.reserve(perm.size());
      for (std::int64_t p : perm) {
        RAMIEL_CHECK(p >= 0 && p < is.rank() &&
                         !seen[static_cast<std::size_t>(p)],
                     str_cat("Transpose node '", n.name,
                             "': perm must be a permutation of [0, rank)"));
        seen[static_cast<std::size_t>(p)] = true;
        dims.push_back(is.dim(static_cast<int>(p)));
      }
      return {Shape(std::move(dims))};
    }
    case OpKind::kReshape: {
      if (!in_known(0)) return {};
      std::vector<std::int64_t> target;
      if (n.attrs.has("shape")) {
        target = n.attrs.get_ints("shape");
      } else if (const Tensor* t = in_const(1)) {
        for (float f : t->data()) {
          target.push_back(static_cast<std::int64_t>(std::llround(f)));
        }
      } else {
        return {};  // data-dependent reshape; resolved after folding
      }
      const Shape& is = in_shape(0);
      std::int64_t knownp = 1;
      int wild = -1;
      for (std::size_t i = 0; i < target.size(); ++i) {
        if (target[i] == -1) {
          wild = static_cast<int>(i);
        } else if (target[i] == 0) {
          target[i] = is.dim(static_cast<int>(i));
          knownp *= target[i];
        } else {
          knownp *= target[i];
        }
      }
      if (wild >= 0) {
        if (knownp == 0 || is.numel() % knownp != 0) return {};
        target[static_cast<std::size_t>(wild)] = is.numel() / knownp;
      }
      return {Shape(std::move(target))};
    }
    case OpKind::kFlatten: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      const int ax = static_cast<int>(n.attrs.get_int("axis", 1));
      std::int64_t outer = 1, inner = 1;
      for (int d = 0; d < ax; ++d) outer *= is.dim(d);
      for (int d = ax; d < is.rank(); ++d) inner *= is.dim(d);
      return {Shape{outer, inner}};
    }
    case OpKind::kShape: {
      if (!in_known(0)) return {};
      return {Shape{in_shape(0).rank()}};
    }
    case OpKind::kUnsqueeze: {
      if (!in_known(0)) return {};
      std::vector<std::int64_t> dims = in_shape(0).dims();
      auto axes = n.attrs.get_ints("axes");
      std::sort(axes.begin(), axes.end());
      for (std::int64_t a : axes) {
        std::int64_t ax = a < 0 ? a + static_cast<std::int64_t>(dims.size()) + 1 : a;
        RAMIEL_CHECK(ax >= 0 && ax <= static_cast<std::int64_t>(dims.size()),
                     "unsqueeze axis out of range");
        dims.insert(dims.begin() + static_cast<std::ptrdiff_t>(ax), 1);
      }
      return {Shape(std::move(dims))};
    }
    case OpKind::kSqueeze: {
      if (!in_known(0)) return {};
      const Shape& is = in_shape(0);
      std::vector<bool> drop(static_cast<std::size_t>(is.rank()), false);
      for (std::int64_t a : n.attrs.get_ints("axes")) {
        drop[static_cast<std::size_t>(is.normalize_axis(static_cast<int>(a)))] =
            true;
      }
      std::vector<std::int64_t> dims;
      for (int d = 0; d < is.rank(); ++d) {
        if (!drop[static_cast<std::size_t>(d)]) dims.push_back(is.dim(d));
      }
      return {Shape(std::move(dims))};
    }
    case OpKind::kEmbedding: {
      if (!in_known(0) || !in_known(1)) return {};
      const Shape& table = in_shape(0);
      std::vector<std::int64_t> dims = in_shape(1).dims();
      dims.push_back(table.dim(1));
      return {Shape(std::move(dims))};
    }
  }
  return {};
}

}  // namespace

int infer_shapes(Graph& graph) {
  int filled = 0;
  for (NodeId id : graph.topo_order()) {
    const Node& n = graph.node(id);
    std::vector<Shape> shapes = infer_node(graph, n);
    if (shapes.empty()) continue;
    RAMIEL_CHECK(shapes.size() == n.outputs.size(),
                 str_cat("inference produced wrong output count for node '",
                         n.name, "'"));
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      Value& v = graph.value(n.outputs[i]);
      if (!known(v)) {
        v.shape = shapes[i];
        ++filled;
      }
    }
  }
  return filled;
}

void require_static_shapes(const Graph& graph) {
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    for (ValueId out : n.outputs) {
      const Value& v = graph.value(out);
      if (!known(v)) {
        throw ValidationError(str_cat("value '", v.name, "' (node '", n.name,
                                      "') has no static shape"));
      }
    }
  }
}

}  // namespace ramiel

#include "graph/op_eval.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

void expect_arity(const Node& n, std::size_t got, std::size_t min_want,
                  std::size_t max_want) {
  RAMIEL_CHECK(got >= min_want && got <= max_want,
               str_cat("node '", n.name, "' (", op_kind_name(n.kind),
                       ") expected ", min_want, "..", max_want,
                       " inputs, got ", got));
}

/// Fused-epilogue activation recorded on Conv2d/Gemm nodes by the
/// activation-fusion pass ("" / "relu" / "sigmoid").
kernels::Activation fused_activation(const Node& n) {
  if (!n.attrs.has("act")) return kernels::Activation::kNone;
  const std::string& act = n.attrs.get_str("act");
  if (act == "relu") return kernels::Activation::kRelu;
  if (act == "sigmoid") return kernels::Activation::kSigmoid;
  RAMIEL_CHECK(act.empty(), str_cat("node '", n.name,
                                    "' has unknown fused activation '", act,
                                    "'"));
  return kernels::Activation::kNone;
}

std::vector<std::int64_t> ints_from_tensor(const Tensor& t) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(t.numel()));
  for (float f : t.data()) {
    out.push_back(static_cast<std::int64_t>(std::llround(f)));
  }
  return out;
}

/// Storage dtype the quantize pass assigned to this node's outputs ("sdtype"
/// attribute; absent means f32).
DType node_sdtype(const Node& n) {
  if (!n.attrs.has("sdtype")) return DType::kF32;
  const std::string& s = n.attrs.get_str("sdtype");
  const std::optional<DType> d = parse_dtype(s);
  RAMIEL_CHECK(d.has_value(), str_cat("node '", n.name,
                                      "' has unknown sdtype '", s, "'"));
  return *d;
}

/// Calibrated activation absmax recorded by the calibration tool
/// ("aq_scale" attribute); negative means measure dynamically per call.
float node_aq_scale(const Node& n) {
  return n.attrs.has("aq_scale")
             ? static_cast<float>(n.attrs.get_float("aq_scale"))
             : -1.0f;
}

std::vector<Tensor> eval_node_base(const Node& n, const std::vector<Tensor>& in,
                                   const OpContext& ctx) {
  switch (n.kind) {
    case OpKind::kConstant:
      RAMIEL_UNREACHABLE(
          "Constant nodes carry data on their output value and are never "
          "evaluated");
    case OpKind::kConv2d: {
      expect_arity(n, in.size(), 2, 3);
      Conv2dParams p;
      p.stride_h = p.stride_w = static_cast<int>(n.attrs.get_int("stride", 1));
      p.pad_h = p.pad_w = static_cast<int>(n.attrs.get_int("pad", 0));
      p.dilation_h = p.dilation_w =
          static_cast<int>(n.attrs.get_int("dilation", 1));
      p.groups = static_cast<int>(n.attrs.get_int("groups", 1));
      p.act = fused_activation(n);
      p.out_dtype = node_sdtype(n);
      p.act_absmax = node_aq_scale(n);
      std::optional<Tensor> bias;
      if (in.size() == 3) bias = in[2];
      return {conv2d(in[0], in[1], bias, p, ctx)};
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool: {
      expect_arity(n, in.size(), 1, 1);
      Pool2dParams p;
      p.kernel_h = p.kernel_w = static_cast<int>(n.attrs.get_int("kernel"));
      p.stride_h = p.stride_w =
          static_cast<int>(n.attrs.get_int("stride", p.kernel_h));
      p.pad_h = p.pad_w = static_cast<int>(n.attrs.get_int("pad", 0));
      p.count_include_pad = n.attrs.get_int("count_include_pad", 0) != 0;
      return {n.kind == OpKind::kMaxPool ? max_pool2d(in[0], p, ctx)
                                         : avg_pool2d(in[0], p, ctx)};
    }
    case OpKind::kGlobalAvgPool:
      expect_arity(n, in.size(), 1, 1);
      return {global_avg_pool(in[0], ctx)};
    case OpKind::kResize:
      expect_arity(n, in.size(), 1, 1);
      return {resize_nearest(in[0], static_cast<int>(n.attrs.get_int("scale")),
                             ctx)};
    case OpKind::kMatMul:
      expect_arity(n, in.size(), 2, 2);
      return {matmul(in[0], in[1], ctx, node_sdtype(n), node_aq_scale(n))};
    case OpKind::kGemm: {
      expect_arity(n, in.size(), 2, 3);
      std::optional<Tensor> bias;
      if (in.size() == 3) bias = in[2];
      return {gemm(in[0], in[1], bias, n.attrs.get_int("trans_a", 0) != 0,
                   n.attrs.get_int("trans_b", 0) != 0, fused_activation(n),
                   ctx, node_sdtype(n), node_aq_scale(n))};
    }
    case OpKind::kRelu:
      expect_arity(n, in.size(), 1, 1);
      return {relu(in[0])};
    case OpKind::kLeakyRelu:
      expect_arity(n, in.size(), 1, 1);
      return {leaky_relu(in[0],
                         static_cast<float>(n.attrs.get_float("alpha", 0.01)))};
    case OpKind::kSigmoid:
      expect_arity(n, in.size(), 1, 1);
      return {sigmoid(in[0])};
    case OpKind::kSilu:
      expect_arity(n, in.size(), 1, 1);
      return {silu(in[0])};
    case OpKind::kTanh:
      expect_arity(n, in.size(), 1, 1);
      return {tanh_op(in[0])};
    case OpKind::kGelu:
      expect_arity(n, in.size(), 1, 1);
      return {gelu(in[0])};
    case OpKind::kErf:
      expect_arity(n, in.size(), 1, 1);
      return {erf_op(in[0])};
    case OpKind::kSqrt:
      expect_arity(n, in.size(), 1, 1);
      return {sqrt_op(in[0])};
    case OpKind::kExp:
      expect_arity(n, in.size(), 1, 1);
      return {exp_op(in[0])};
    case OpKind::kNeg:
      expect_arity(n, in.size(), 1, 1);
      return {neg(in[0])};
    case OpKind::kIdentity:
      expect_arity(n, in.size(), 1, 1);
      return {identity(in[0])};
    case OpKind::kAdd:
      expect_arity(n, in.size(), 2, 2);
      return {add(in[0], in[1])};
    case OpKind::kSub:
      expect_arity(n, in.size(), 2, 2);
      return {sub(in[0], in[1])};
    case OpKind::kMul:
      expect_arity(n, in.size(), 2, 2);
      return {mul(in[0], in[1])};
    case OpKind::kDiv:
      expect_arity(n, in.size(), 2, 2);
      return {div_op(in[0], in[1])};
    case OpKind::kPow:
      expect_arity(n, in.size(), 2, 2);
      return {pow_op(in[0], in[1])};
    case OpKind::kBatchNorm:
      expect_arity(n, in.size(), 5, 5);
      return {batch_norm(in[0], in[1], in[2], in[3], in[4],
                         static_cast<float>(n.attrs.get_float("epsilon", 1e-5)))};
    case OpKind::kLayerNorm:
      expect_arity(n, in.size(), 3, 3);
      return {layer_norm(in[0], in[1], in[2],
                         static_cast<float>(n.attrs.get_float("epsilon", 1e-5)))};
    case OpKind::kSoftmax:
      expect_arity(n, in.size(), 1, 1);
      return {softmax(in[0], static_cast<int>(n.attrs.get_int("axis", -1)))};
    case OpKind::kReduceMean: {
      expect_arity(n, in.size(), 1, 1);
      std::vector<int> axes;
      for (std::int64_t a : n.attrs.get_ints("axes")) {
        axes.push_back(static_cast<int>(a));
      }
      return {reduce_mean(in[0], axes)};
    }
    case OpKind::kConcat:
      RAMIEL_CHECK(!in.empty(), "Concat requires inputs");
      return {concat(in, static_cast<int>(n.attrs.get_int("axis")))};
    case OpKind::kSlice:
      expect_arity(n, in.size(), 1, 1);
      return {strided_slice(in[0], static_cast<int>(n.attrs.get_int("axis")),
                            n.attrs.get_int("begin"), n.attrs.get_int("end"),
                            n.attrs.get_int("step", 1))};
    case OpKind::kGather:
      expect_arity(n, in.size(), 2, 2);
      return {gather(in[0], in[1], static_cast<int>(n.attrs.get_int("axis", 0)))};
    case OpKind::kTranspose: {
      expect_arity(n, in.size(), 1, 1);
      std::vector<int> perm;
      for (std::int64_t p : n.attrs.get_ints("perm")) {
        perm.push_back(static_cast<int>(p));
      }
      return {transpose(in[0], perm)};
    }
    case OpKind::kReshape: {
      expect_arity(n, in.size(), 1, 2);
      std::vector<std::int64_t> target;
      if (n.attrs.has("shape")) {
        target = n.attrs.get_ints("shape");
      } else {
        RAMIEL_CHECK(in.size() == 2,
                     "Reshape needs a shape attribute or a shape input");
        target = ints_from_tensor(in[1]);
      }
      return {reshape(in[0], target)};
    }
    case OpKind::kFlatten:
      expect_arity(n, in.size(), 1, 1);
      return {flatten(in[0], static_cast<int>(n.attrs.get_int("axis", 1)))};
    case OpKind::kShape:
      expect_arity(n, in.size(), 1, 1);
      return {shape_of(in[0])};
    case OpKind::kUnsqueeze: {
      expect_arity(n, in.size(), 1, 1);
      std::vector<std::int64_t> dims = in[0].shape().dims();
      auto axes = n.attrs.get_ints("axes");
      std::sort(axes.begin(), axes.end());
      for (std::int64_t a : axes) {
        std::int64_t ax =
            a < 0 ? a + static_cast<std::int64_t>(dims.size()) + 1 : a;
        dims.insert(dims.begin() + static_cast<std::ptrdiff_t>(ax), 1);
      }
      return {in[0].reshaped(Shape(std::move(dims)))};
    }
    case OpKind::kSqueeze: {
      expect_arity(n, in.size(), 1, 1);
      const Shape& is = in[0].shape();
      std::vector<bool> drop(static_cast<std::size_t>(is.rank()), false);
      for (std::int64_t a : n.attrs.get_ints("axes")) {
        drop[static_cast<std::size_t>(
            is.normalize_axis(static_cast<int>(a)))] = true;
      }
      std::vector<std::int64_t> dims;
      for (int d = 0; d < is.rank(); ++d) {
        if (!drop[static_cast<std::size_t>(d)]) dims.push_back(is.dim(d));
      }
      return {in[0].reshaped(Shape(std::move(dims)))};
    }
    case OpKind::kEmbedding:
      expect_arity(n, in.size(), 2, 2);
      return {embedding(in[0], in[1])};
  }
  RAMIEL_UNREACHABLE("unhandled op kind in eval_node");
}

}  // namespace

// Storage-dtype boundary around the op implementations. Three classes of
// nodes:
//   - Conv2d/Gemm/MatMul consume f16/bf16/i8 storage natively (convert-on-
//     pack / quantized GEMM) and write their "sdtype" directly — pass
//     through untouched;
//   - alias ops only move shape metadata and forward any storage (the
//     quantize pass keeps alias chains dtype-uniform);
//   - everything else computes in fp32: low-precision inputs widen first
//     (with the alloc sink bypassed so temporaries never claim a planned
//     slot) and f32 outputs narrow to the node's sdtype afterwards — that
//     cast runs *inside* the executor's sink scope, so it lands in the
//     value's planned arena slot.
std::vector<Tensor> eval_node(const Node& n, const std::vector<Tensor>& in,
                              const OpContext& ctx) {
  // Views and Shape are dtype-polymorphic by construction: they only touch
  // shape metadata.
  if (n.kind == OpKind::kConv2d || n.kind == OpKind::kGemm ||
      n.kind == OpKind::kMatMul || op_is_alias(n.kind) ||
      n.kind == OpKind::kShape) {
    return eval_node_base(n, in, ctx);
  }
  const DType sd = node_sdtype(n);
  bool any_lowp = false;
  for (const Tensor& t : in) any_lowp |= t.dtype() != DType::kF32;
  if (!any_lowp && sd == DType::kF32) return eval_node_base(n, in, ctx);

  std::vector<Tensor> widened;
  if (any_lowp) {
    widened.reserve(in.size());
    AllocSink* prev = set_thread_alloc_sink(nullptr);
    for (const Tensor& t : in) {
      if (t.dtype() == DType::kF32) {
        widened.push_back(t);
      } else if (t.dtype() == DType::kI8) {
        widened.push_back(t.dequantize());
      } else {
        widened.push_back(t.cast(DType::kF32));
      }
    }
    set_thread_alloc_sink(prev);
  }
  std::vector<Tensor> out = eval_node_base(n, any_lowp ? widened : in, ctx);
  if (sd != DType::kF32) {
    for (Tensor& t : out) {
      if (t.dtype() == DType::kF32) t = t.cast(sd);
    }
  }
  return out;
}

}  // namespace ramiel

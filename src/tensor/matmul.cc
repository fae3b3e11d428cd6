#include "support/check.h"
#include "support/string_util.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace ramiel {
namespace {

/// One rank-2 product dispatched by weight storage: i8 `b` (per-column
/// QuantMeta) goes through the quantized GEMM, everything else through the
/// dtype-polymorphic sgemm.
void run_product(std::int64_t M, std::int64_t N, std::int64_t K, const void* A,
                 DType a_dt, std::int64_t rs_a, std::int64_t cs_a,
                 const void* B, DType b_dt, const QuantMeta* bq,
                 std::int64_t rs_b, std::int64_t cs_b, void* C, DType c_dt,
                 std::int64_t ldc, float act_absmax,
                 const kernels::Epilogue& ep, const OpContext& ctx) {
  if (b_dt == DType::kI8) {
    kernels::qgemm(M, N, K, A, a_dt, rs_a, cs_a, B, b_dt, rs_b, cs_b,
                   bq->scales.data(), bq->sums.data(), C, c_dt, ldc,
                   act_absmax, ep, ctx);
  } else {
    kernels::sgemm_dt(M, N, K, A, a_dt, rs_a, cs_a, B, b_dt, rs_b, cs_b, C,
                      c_dt, ldc, ep, ctx);
  }
}

/// Validates i8 weight metadata: per-output-channel scales on `axis` with
/// one channel per output column.
const QuantMeta* checked_quant(const Tensor& w, int axis, std::int64_t n,
                               const char* op) {
  const QuantMeta* q = w.quant();
  RAMIEL_CHECK(q != nullptr,
               str_cat(op, ": i8 weights require quantization metadata"));
  RAMIEL_CHECK(q->axis == axis && static_cast<std::int64_t>(q->scales.size()) ==
                                      n,
               str_cat(op, ": i8 weight scales must be per output channel"));
  return q;
}

}  // namespace

// Batched matmul with broadcast over leading dims. Every per-batch product
// runs on the kernels::sgemm backend; the common Linear-layer case (full
// batch on the left, shared rank-2 weights on the right) collapses into one
// (batch*M, K) x (K, N) GEMM so the blocked driver sees the whole row space.
Tensor matmul(const Tensor& a, const Tensor& b, const OpContext& ctx,
              DType out_dtype, float act_absmax) {
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  RAMIEL_CHECK(as.rank() >= 2 && bs.rank() >= 2,
               "matmul operands must have rank >= 2");
  RAMIEL_CHECK(a.dtype() != DType::kI8,
               "matmul: i8 storage is only supported for the rhs weights");
  const std::int64_t M = as.dim(-2), Ka = as.dim(-1);
  const std::int64_t Kb = bs.dim(-2), N = bs.dim(-1);
  RAMIEL_CHECK(Ka == Kb, str_cat("matmul inner dims mismatch: ", as.to_string(),
                                 " x ", bs.to_string()));
  // Broadcast batch dims.
  const int batch_rank = std::max(as.rank(), bs.rank()) - 2;
  std::vector<std::int64_t> batch_dims(static_cast<std::size_t>(batch_rank));
  for (int i = 0; i < batch_rank; ++i) {
    std::int64_t da = (i < as.rank() - 2) ? as.dim(as.rank() - 3 - i) : 1;
    std::int64_t db = (i < bs.rank() - 2) ? bs.dim(bs.rank() - 3 - i) : 1;
    RAMIEL_CHECK(da == db || da == 1 || db == 1, "matmul batch dims mismatch");
    batch_dims[static_cast<std::size_t>(batch_rank - 1 - i)] = std::max(da, db);
  }
  std::int64_t batch = 1;
  for (std::int64_t d : batch_dims) batch *= d;

  const QuantMeta* bq = nullptr;
  if (b.dtype() == DType::kI8) {
    RAMIEL_CHECK(bs.rank() == 2,
                 "matmul: i8 weights must be rank-2 [K, N] initializers");
    bq = checked_quant(b, /*axis=*/1, N, "matmul");
    if (act_absmax < 0.0f) {
      // One scan over the whole lhs keeps the dynamic scale identical for
      // the collapsed and per-batch forms.
      act_absmax = kernels::absmax(a.raw(), a.dtype(),
                                   static_cast<std::size_t>(a.numel()));
    }
  }

  std::vector<std::int64_t> out_dims = batch_dims;
  out_dims.push_back(M);
  out_dims.push_back(N);
  Tensor out(Shape(std::move(out_dims)), out_dtype);

  // Per-batch strides into a and b (0 when the operand is broadcast).
  std::int64_t a_batch = 1, b_batch = 1;
  for (int i = 0; i < as.rank() - 2; ++i) a_batch *= as.dim(i);
  for (int i = 0; i < bs.rank() - 2; ++i) b_batch *= bs.dim(i);
  // We only support "full" or "scalar" broadcast over the flattened batch for
  // simplicity; the models use either equal batch dims or rank-2 weights.
  const std::int64_t a_stride = (a_batch == batch) ? M * Ka : 0;
  const std::int64_t b_stride = (b_batch == batch) ? Ka * N : 0;
  RAMIEL_CHECK(a_batch == batch || a_batch == 1,
               "matmul: unsupported partial batch broadcast on lhs");
  RAMIEL_CHECK(b_batch == batch || b_batch == 1,
               "matmul: unsupported partial batch broadcast on rhs");

  const auto* da = static_cast<const std::uint8_t*>(a.raw());
  const auto* db = static_cast<const std::uint8_t*>(b.raw());
  auto* dst = static_cast<std::uint8_t*>(out.raw_mut());
  const std::size_t a_esz = dtype_size(a.dtype());
  const std::size_t b_esz = dtype_size(b.dtype());
  const std::size_t c_esz = dtype_size(out_dtype);
  const kernels::Epilogue ep;

  if (b_stride == 0 && a_stride != 0) {
    // Shared weights: one tall GEMM over the flattened (batch, M) rows.
    run_product(batch * M, N, Ka, da, a.dtype(), Ka, 1, db, b.dtype(), bq, N,
                1, dst, out_dtype, N, act_absmax, ep, ctx);
    return out;
  }
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    run_product(M, N, Ka, da + bi * a_stride * a_esz, a.dtype(), Ka, 1,
                db + bi * b_stride * b_esz, b.dtype(), bq, N, 1,
                dst + bi * M * N * c_esz, out_dtype, N, act_absmax, ep, ctx);
  }
  return out;
}

bool gemm_bias_broadcasts(const Shape& bias, std::int64_t M, std::int64_t N) {
  if (bias.rank() > 2) return false;
  const std::int64_t bm = bias.rank() == 2 ? bias.dim(0) : 1;
  const std::int64_t bn = bias.rank() >= 1 ? bias.dim(-1) : 1;
  return (bm == 1 || bm == M) && (bn == 1 || bn == N);
}

Tensor gemm(const Tensor& a, const Tensor& b, const std::optional<Tensor>& bias,
            bool trans_a, bool trans_b, kernels::Activation act,
            const OpContext& ctx, DType out_dtype, float act_absmax) {
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  RAMIEL_CHECK(as.rank() == 2 && bs.rank() == 2, "gemm operands must be rank 2");
  RAMIEL_CHECK(a.dtype() != DType::kI8,
               "gemm: i8 storage is only supported for the rhs weights");
  const std::int64_t M = trans_a ? as.dim(1) : as.dim(0);
  const std::int64_t K = trans_a ? as.dim(0) : as.dim(1);
  const std::int64_t Kb = trans_b ? bs.dim(1) : bs.dim(0);
  const std::int64_t N = trans_b ? bs.dim(0) : bs.dim(1);
  RAMIEL_CHECK(K == Kb, "gemm inner dims mismatch");

  const QuantMeta* bq = nullptr;
  if (b.dtype() == DType::kI8) {
    bq = checked_quant(b, /*axis=*/trans_b ? 0 : 1, N, "gemm");
    if (act_absmax < 0.0f) {
      act_absmax = kernels::absmax(a.raw(), a.dtype(),
                                   static_cast<std::size_t>(a.numel()));
    }
  }

  Tensor out(Shape{M, N}, out_dtype);
  kernels::Epilogue ep;
  ep.act = act;
  if (bias) {
    const Shape& cs = bias->shape();
    RAMIEL_CHECK(gemm_bias_broadcasts(cs, M, N),
                 str_cat("gemm bias ", cs.to_string(),
                         " does not broadcast to [", M, ", ", N, "]"));
    // Right-aligned: a rank-1 bias is the column axis.
    const std::int64_t bm = cs.rank() == 2 ? cs.dim(0) : 1;
    const std::int64_t bn = cs.rank() >= 1 ? cs.dim(-1) : 1;
    ep.bias = bias->data().data();
    ep.bias_stride_m = bm == 1 ? 0 : bn;
    ep.bias_stride_n = bn == 1 ? 0 : 1;
  }
  // Transposition is just a stride swap; packing reads through it.
  const std::int64_t rs_a = trans_a ? 1 : K;
  const std::int64_t cs_a = trans_a ? M : 1;
  const std::int64_t rs_b = trans_b ? 1 : N;
  const std::int64_t cs_b = trans_b ? K : 1;
  run_product(M, N, K, a.raw(), a.dtype(), rs_a, cs_a, b.raw(), b.dtype(), bq,
              rs_b, cs_b, out.raw_mut(), out_dtype, N, act_absmax, ep, ctx);
  return out;
}

}  // namespace ramiel

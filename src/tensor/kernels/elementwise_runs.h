// Run loops of the f32 element-wise layer: the innermost loops of the
// broadcast binary ops (Add, Sub, Mul, Div and Pow(x, 2) in elementwise.cc),
// of Relu, LeakyRelu, Neg and Sqrt, and of ReduceMean over a contiguous
// innermost axis (LayerNorm's mean). Internal to src/tensor/.
//
// Two tiers that produce the same bits:
//   - AVX2 (elementwise_runs_avx2.cc, built with -mavx2 -ffp-contract=off
//     and without -mfma), used when the kernel path is vector and the CPUID
//     probe finds AVX2+FMA;
//   - portable (elementwise_runs.cc): the scalar loops, used on hosts
//     without AVX2 and under RAMIEL_KERNEL=scalar.
// The tier is chosen once per call (active()), never per element.
//
// Contract:
//   - Every output element is the same single IEEE-754 operation on the
//     same operands in both tiers, rounded once: x + y, x - y, x * y, x / y,
//     x * x; sqrt(x); -x flips the sign bit (NaNs included). Relu is
//     v > 0 ? v : +0 (max_ps(v, 0)), so NaN and -0 give +0; LeakyRelu is
//     v > 0 ? v : alpha * v. Nothing is contracted or reassociated.
//   - row_means: row r's d values are summed in order starting from +0.0f,
//     one add per element, then the sum is multiplied by `inv`. The AVX2
//     tier sums 8 rows at a time, one row per lane, through an 8x8 register
//     transpose, so every lane still adds its own row in input order.
//   - The output may alias an input exactly (`o == x` or `o == y`, the
//     memory planner's in-place slots): each step loads all of its operands
//     before it stores at the same indices. Partial overlap is not allowed.
//   - Where both operands of one operation are NaN (the two inputs of a
//     binary element, or a NaN running sum and a NaN value in a row), which
//     of the two payloads comes out is not part of the contract: the
//     compiler may swap the operands of a commutative op in either tier.
#pragma once

#include <cstdint>

namespace ramiel::kernels::ewise {

/// o[i] = op(x[i * sx], y[i * sy]) for i in [0, n). {sx, sy} is exactly one
/// of {1, 1}, {0, 1} and {1, 0}: after strided::collapse a run is
/// contiguous in every operand that is not broadcast along it, and a
/// one-element output is passed as {1, 1}. Square ignores y (Pow with a
/// scalar exponent 2).
using BinaryRun = void (*)(const float* x, std::int64_t sx, const float* y,
                           std::int64_t sy, float* o, std::int64_t n);
/// o[i] = op(x[i]) for i in [0, n); `alpha` is LeakyRelu's slope.
using UnaryRun = void (*)(const float* x, float* o, std::int64_t n,
                          float alpha);
/// o[r] = (x[r*d] + ... + x[r*d + d-1], from +0.0f) * inv for r < rows.
using RowMeans = void (*)(const float* x, float* o, std::int64_t rows,
                          std::int64_t d, float inv);

/// One tier's entry points.
struct Kernels {
  BinaryRun add;
  BinaryRun sub;
  BinaryRun mul;
  BinaryRun div;
  BinaryRun square;
  UnaryRun relu;
  UnaryRun leaky_relu;
  UnaryRun neg;
  UnaryRun sqrt;
  RowMeans row_means;
};

/// The tier for the next call: AVX2 when the kernel path is vector and the
/// CPUID probe succeeded, portable otherwise.
const Kernels& active();

namespace detail {

/// The AVX2 tier, or null where the compiler cannot emit AVX2. Only ever
/// called after the CPUID probe succeeds.
const Kernels* avx2_kernels();

}  // namespace detail
}  // namespace ramiel::kernels::ewise

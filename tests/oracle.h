// The oracle harness: every executor configuration checked against the f32
// sequential run in one place.
//
// The paper's Ramiel emits a single-core, non-parallel version of each model
// as the reference for its parallel code. Here that reference is
// SequentialExecutor in f32 on the unmodified graph — the oracle. check()
// compiles a graph source for each cell of the configuration matrix
//
//   placement x mem plan x dtype x compile rewrites x batch/hyper mode x
//   samples per run x runs in flight x intra-op threads x kernel tier x
//   stage cut
//
// runs the cell on a ParallelExecutor and asserts two relations:
//
//   (1) bit-identity with SequentialExecutor on the same compiled graph,
//       the same samples, the same kernel tier (a cell capped at AVX2 is
//       compared with the uncapped tier: see KernelTier) and intra-op
//       width:
//       placement, mem plan, runs in flight, the hypercluster interleave,
//       a short run and the stage cut never change a bit (and every output
//       owns its storage), and an arena
//       cell runs on a non-empty plan. A cell in f32 without rewrites at
//       width 1 compiles to the reference's computation: its same-graph
//       run is the oracle run itself;
//   (2) agreement with the oracle, run at the cell's tier and width 1,
//       within the tolerance table below.
//
// With one run in flight a cell runs the same batch twice, back to back, so
// a reused executor must reproduce its own bits; with k in flight it
// submits k different batches before waiting for any. A short cell (n
// samples of a batch-b program) runs the first n samples of each batch,
// then the full batch of the first one on the same executor, whose first n
// outputs must be its short run's bits.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "support/dtype.h"
#include "tensor/kernels/kernels.h"

namespace ramiel::serve::fleet {
class FleetServer;
}

namespace ramiel::oracle {

// ---------------------------------------------------------------- table --

/// How far a cell's outputs may sit from the oracle's. Element-wise
/// (allclose: |got - want| <= atol + rtol * |got|, NaN never close) unless
/// `l2` > 0, then per output tensor
/// ||got - want||_2 / max(||want||_2, l2_floor) <= l2.
/// Low-precision outputs are widened to f32 first.
struct Tolerance {
  float atol = 0.0f;
  float rtol = 0.0f;
  double l2 = 0.0;
  double l2_floor = 1.0;
};

// The tolerance table: every bound a test states against a reference run.
// The values are regression fences set by the tests that first stated them
// (named in brackets); a cell takes the row of the one transformation that
// moves its outputs the most: dtype, else compile rewrites, else width.

/// Bit identity: same graph, same tier, same width.
inline constexpr Tolerance kExact{};
/// Text serialization round trip [RandomGraphs.SerializationRoundTrip...].
inline constexpr Tolerance kRoundTrip{1e-6f, 1e-5f};
/// Folding or cloning a small hand-built or random graph
/// [RandomGraphs.FoldingPreservesOutputs, Cloning.PreservesSemantics].
inline constexpr Tolerance kSmallRewrite{1e-5f, 1e-5f};
/// Intra-op width > 1, and one rule on one small conv block
/// [ParallelExecutor.IntraOpThreadsPreserveResults,
/// BnFolding.FoldsConvBnPairPreservingOutputs].
inline constexpr Tolerance kWidth{1e-4f, 1e-4f};
/// Constant folding or cloning over a whole zoo model
/// [CpDce.FullPipelinePreservesSemantics, Cloning.ModelSemanticsPreserved].
inline constexpr Tolerance kZooRewrite{1e-4f, 1e-3f};
/// Fold + clone, or BN folding / activation fusion, over a whole zoo
/// model's conv stacks [Pipeline.CompiledModelExecutesCorrectly,
/// BnFolding.FoldsAcrossWholeModels].
inline constexpr Tolerance kZooRewriteChain{1e-3f, 1e-2f};
/// Any subset of the pattern rules
/// [PatternProperty.*, PatternZoo.*]; relative L2.
inline constexpr Tolerance kPatterns{0.0f, 0.0f, 1e-4, 1e-12};

/// The low-precision fences [QuantZoo.*], relative L2 floored at 1:
///
///   dtype   other zoo models   bert, random DAGs
///   f16     1e-3               4e-3
///   bf16    4e-3               3e-2
///   i8      5.8e-3             5.8e-2
///
/// Exact fences, ~2x above measured: inputs are seeded and every kernel is
/// bit-identical across tiers and executors. The i8 fences are 1.5x the
/// largest error over the QuantZoo and OracleMatrix i8 cells: retinanet
/// 3.90e-3 (next nasnet 2.5e-4, the rest below 2e-4) and bert 3.89e-2, so
/// a doubled activation scale (twice-coarser quantization) breaks both.
/// bert accumulates one rounding per demoted dense output over ~75 GEMMs (sqrt(75) x the per-tensor
/// quantization RMS, EXPERIMENTS.md). bf16's unit roundoff is 2^-9, so one
/// narrowing already costs up to 2e-3 in the max norm. Random DAGs chain
/// uncalibrated Gemms and products the same way and share bert's row, but
/// with 2.5-5x headroom rather than ~2x (measured maxima over the matrix:
/// f16 1.6e-3, bf16 5.8e-3, i8 1.8e-2), so their low-precision cells are the
/// weaker check.
inline constexpr Tolerance kF16Fence{0.0f, 0.0f, 1e-3, 1.0};
inline constexpr Tolerance kBF16Fence{0.0f, 0.0f, 4e-3, 1.0};
inline constexpr Tolerance kI8Fence{0.0f, 0.0f, 5.8e-3, 1.0};
inline constexpr Tolerance kF16DeepFence{0.0f, 0.0f, 4e-3, 1.0};
inline constexpr Tolerance kBF16DeepFence{0.0f, 0.0f, 3e-2, 1.0};
inline constexpr Tolerance kI8DeepFence{0.0f, 0.0f, 5.8e-2, 1.0};
/// One int8 GEMM of random operands against its f32 product, where the
/// whole error is one activation and one weight rounding (measured 9.9e-3)
/// [QuantI8.AllZeroWeightChannelStaysExactlyZero].
inline constexpr Tolerance kI8Gemm{0.0f, 0.0f, 1e-2, 1.0};
Tolerance quant_fence(const std::string& model, DType dtype);

// ---------------------------------------------------------------- cells --

enum class Rewrites { kNone, kFold, kFoldClone, kPatterns };

/// A cell's kernels: the scalar reference loops, the vector path at the
/// host's best tier, or the vector path capped at AVX2 (kernels::force_tier).
/// The f32 GEMM's AVX-512 tier computes the AVX2 tier's bits, so a kAvx2
/// cell's reference runs take the best tier: its relation (1) is the two
/// tiers' bit identity.
enum class KernelTier { kScalar, kVector, kAvx2 };

/// One configuration. The defaults are the plain batch-1 pinned run.
struct Cell {
  ExecutorKind placement = ExecutorKind::kStatic;
  bool arena = true;  // run on the compiled memory plan, else on the heap
  DType dtype = DType::kF32;
  Rewrites rewrites = Rewrites::kNone;
  int batch = 1;
  HyperMode hyper = HyperMode::kPlain;
  int samples = 0;  // 1..batch: samples per run (a short run); 0 = batch
  int in_flight = 1;
  int intra_op = 1;
  // Unset: RAMIEL_KERNEL decides.
  std::optional<KernelTier> tier = std::nullopt;
  int stages = 0;  // > 0: run the stage cut (the pipelined tenant) instead
};

/// A graph to check: a zoo model, a seeded random DAG or a hand-built graph.
struct Source {
  std::string name;
  std::function<Graph()> build;
};

Source zoo(const std::string& model);

/// Random DAG over [rows, 8] values (rows 1 or 4) with one to three inputs.
/// Its op mix covers every rewrite and planner case: Constant nodes (fold
/// fodder); Gemm against constant weights, some behind a Transpose, and
/// Add/Mul with constants (pattern fodder); MatMul against a shared weight;
/// Identity alias chains; Relu, Sigmoid, Tanh, Neg, Exp (of a Tanh, so
/// values stay finite); Add, Sub, Mul. Outputs are every unconsumed value
/// plus one mid-graph value that still has consumers.
Graph random_dag(std::uint64_t seed);
Source random_source(std::uint64_t seed);

/// The compile a cell runs (no generated code).
CompiledModel compile(Graph graph, const Cell& cell);

/// Runs every cell and asserts both relations; a failure names its cell.
void check(const Source& source, const std::vector<Cell>& cells);

/// Every combination of the listed values (the cartesian product).
struct Slice {
  std::vector<ExecutorKind> placements = {ExecutorKind::kStatic};
  std::vector<bool> arenas = {true};
  std::vector<DType> dtypes = {DType::kF32};
  std::vector<Rewrites> rewrites = {Rewrites::kNone};
  std::vector<int> batches = {1};
  std::vector<HyperMode> hypers = {HyperMode::kPlain};
  std::vector<int> samples = {0};
  std::vector<int> in_flight = {1};
  std::vector<int> intra_op = {1};
};
std::vector<Cell> cells(const Slice& slice);

/// A fixed pairwise covering array of the whole matrix in 16 cells (the
/// least a 4 x 4 pair of dimensions allows): dtype {f32, f16, bf16, i8} x
/// rewrites {none, fold, fold+clone, patterns} x batch {1, 4 plain,
/// 4 switched} x placement {static, steal} x mem plan {arena, heap} x runs
/// in flight {1, 2} x intra-op threads {1, 2} x tier {vector, scalar} x
/// stage cut {none, 3}. Every pair of values of two dimensions appears in
/// at least one cell.
std::vector<Cell> pairwise_cells();

/// Submits every batch (1 to the program's batch samples each) to program 0
/// before waiting for any; returns each batch's outputs. A failed run is a test failure unless `errors` is given,
/// which then receives each run's error (null when it succeeded).
std::vector<std::vector<TensorMap>> run_in_flight(
    ParallelExecutor& exec, const std::vector<std::vector<TensorMap>>& batches,
    const RunOptions& options = {},
    std::vector<std::exception_ptr>* errors = nullptr);

/// Submits every sample to `model` on `server` before waiting for any and
/// returns each response's outputs, in order. A failed response is a test
/// failure.
std::vector<TensorMap> serve_all(serve::fleet::FleetServer& server,
                                 const std::string& model,
                                 const std::vector<TensorMap>& samples);

/// Relation (2) for a rewrite applied outside the pipeline: the sequential
/// run of `reference` against the run of `rewritten` on the same seeded
/// inputs — sequential, or parallel over `hyperclusters` when given.
void check_rewrite(const Graph& reference, const Graph& rewritten,
                   const Tolerance& tolerance,
                   const Hyperclustering* hyperclusters = nullptr);

// ------------------------------------------------------------- compare --

/// Same samples, keys, dtypes, shapes and bytes.
void expect_bit_identical(const std::vector<TensorMap>& want,
                          const std::vector<TensorMap>& got);

/// `t` as f32: low-precision tensors cast, int8 ones dequantized.
Tensor widen(const Tensor& t);

/// Same samples and keys, every output within `tolerance` of `want`'s.
void expect_agrees(const std::vector<TensorMap>& want,
                   const std::vector<TensorMap>& got,
                   const Tolerance& tolerance);

}  // namespace ramiel::oracle

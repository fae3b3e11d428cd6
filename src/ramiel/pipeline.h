// The Ramiel end-to-end pipeline (paper Fig. 10):
//
//   ONNX model -> [constant propagation + DCE] -> Model2Graph ->
//   [Cloning] -> Clustering (LC + merging) -> [Hyperclustering, batch > 1]
//   -> Parallel code generation
//
// compile_model() runs the whole thing and measures its wall time — the
// "CT(s)" compile-time column of Table VIII.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/python_codegen.h"
#include "mem/plan.h"
#include "passes/analysis.h"
#include "passes/cloning.h"
#include "passes/cluster_merging.h"
#include "passes/constant_folding.h"
#include "passes/hypercluster.h"
#include "passes/linear_clustering.h"
#include "passes/patterns/driver.h"
#include "passes/quantize.h"
#include "support/dtype.h"

namespace ramiel::obs {
class Timeline;
}  // namespace ramiel::obs

namespace ramiel {

/// Which hypercluster interleave to build when batch > 1.
enum class HyperMode { kPlain, kSwitched };

struct PipelineOptions {
  /// Run constant propagation + dead-code elimination first (§III-C).
  bool constant_folding = false;
  /// Run restricted task cloning before clustering (§III-D).
  bool cloning = false;
  /// Run the declarative pattern-rewrite stage (src/passes/patterns/): every
  /// registered rule, applied to a fixed point with driver-enforced guards.
  bool pattern_rewrites = false;
  /// Per-pattern enable overrides by name (true = force on, false = off).
  /// A `true` entry also runs the stage without pattern_rewrites, with only
  /// the forced-on rules (e.g. {"fold-batch-norms", true} folds Conv+BN
  /// pairs and nothing else). Unknown names raise Error.
  std::unordered_map<std::string, bool> pattern_overrides;
  /// Storage dtype the model is lowered to (kF32 = no lowering): weights
  /// rewritten by the quantize_weights pass, eligible activations demoted,
  /// the memory plan sized in actual element bytes. Compute stays fp32.
  DType dtype = DType::kF32;
  /// Calibrated per-value absmax ranges (value name -> absmax) recorded by
  /// `ramiel calibrate`; consulted by the i8 lowering to stamp static
  /// activation scales on quantized Conv/Gemm/MatMul nodes.
  std::unordered_map<std::string, float> calibration;
  /// Inference batch size; > 1 triggers hyperclustering (§III-E).
  int batch = 1;
  HyperMode hyper_mode = HyperMode::kPlain;
  /// Generate the parallel + sequential Python sources (Algorithm 4).
  bool generate_code = true;
  /// Compute the static memory plan for the hyperclustered streams
  /// (src/mem/). The plan is advisory: executors constructed without it run
  /// fully on the heap.
  bool mem_planning = true;
};

/// What one compiler stage did to the graph — the per-pass compile report
/// (the ONNX-MLIR-style honesty ledger; `ramiel compile --report` dumps the
/// full list as JSON). Timestamps are Stopwatch::now_ns() values, the same
/// clock the runtime tracer uses, so pass spans and task spans share one
/// timeline.
struct PassReport {
  std::string pass;              // "constant_folding", "linear_clustering", ...
  double wall_ms = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int nodes_before = 0;          // live nodes entering the pass
  int nodes_after = 0;
  int edges_before = 0;          // producer->consumer tensor edges
  int edges_after = 0;
  /// Weighted critical-path length after the pass (the quantity LC zeroes
  /// out cluster by cluster); -1 when not measured.
  std::int64_t critical_path = -1;
  /// Cluster count produced by a clustering stage; -1 elsewhere.
  int clusters = -1;
};

/// Everything the pipeline produces for one model.
struct CompiledModel {
  Graph graph;  // transformed graph (folded/cloned/compacted)
  ParallelismReport analysis;       // Table I row
  int clusters_before_merge = 0;    // Table II "Before"
  Clustering clustering;            // merged clusters (Table II "After")
  Hyperclustering hyperclusters;    // batch-aware task lists
  mem::MemPlan mem_plan;            // static arena plan (empty if disabled)
  CodegenResult code;
  FoldStats fold_stats;
  CloningStats clone_stats;
  /// Per-pattern applied counts + rounds from the pattern-rewrite stage
  /// (empty when the stage did not run). Also surfaced in the compile
  /// report's "patterns" block.
  patterns::PatternRunStats pattern_stats;
  /// Low-precision lowering counters (all zero when options.dtype == kF32).
  QuantizeStats quant_stats;
  /// Coefficient of variation (stddev/mean) of per-cluster summed node
  /// weight — the skew measure `--executor auto` compares against
  /// RAMIEL_AUTO_STEAL_CV to decide between the static and work-stealing
  /// runtimes. 0 for perfectly balanced clusters (or fewer than two).
  double cluster_cost_cv = 0.0;
  double compile_seconds = 0.0;     // Table VIII "CT(s)"
  std::vector<PassReport> pass_reports;  // one entry per stage that ran
};

/// Runs the pipeline on `graph` (consumed).
CompiledModel compile_model(Graph graph, const PipelineOptions& options = {});

/// Per-value dynamic ranges for int8 calibration: the absolute maximum of
/// every non-empty f32 graph input and node output of `graph`, accumulated
/// over `samples` (each evaluated node by node in topological order) and
/// keyed by value name.
std::unordered_map<std::string, float> record_calibration(
    const Graph& graph,
    const std::vector<std::unordered_map<std::string, Tensor>>& samples);

/// Writes `ranges` as a calibration file: one "name<TAB>absmax" line per
/// value of `graph` that has a range, in value order. Throws Error when the
/// file cannot be written.
void write_calibration(const Graph& graph,
                       const std::unordered_map<std::string, float>& ranges,
                       const std::string& path);

/// Parses a calibration file (write_calibration's format, what
/// ramiel_calibrate emits) into PipelineOptions::calibration.
/// Throws Error when the file cannot be read or a range is not a finite
/// value >= 0 (naming the file and line); malformed lines are skipped.
std::unordered_map<std::string, float> load_calibration(
    const std::string& path);

/// Serializes the per-pass compile report as one JSON object
/// (`ramiel compile --report=FILE` writes exactly this).
std::string compile_report_json(const CompiledModel& cm);

/// Appends the compile passes as spans on the compiler track of a unified
/// trace timeline (obs::kCompilerPid), aligned with any runtime profile
/// recorded in the same process.
void add_compile_trace(const CompiledModel& cm, obs::Timeline& timeline);

}  // namespace ramiel

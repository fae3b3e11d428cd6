#include "ramiel/pipeline.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "graph/cost_model.h"
#include "graph/op_eval.h"
#include "graph/shape_inference.h"
#include "mem/planner.h"
#include "passes/patterns/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "tensor/kernels/kernels.h"

namespace ramiel {
namespace {

/// Producer->consumer tensor edges among live nodes (what the clustering
/// passes cut or internalize; reported before/after every pass).
int count_live_edges(const Graph& g) {
  int edges = 0;
  for (const Node& n : g.nodes()) {
    if (n.dead) continue;
    for (ValueId v : n.inputs) {
      const Value& val = g.value(v);
      if (val.producer != kNoNode && !g.node(val.producer).dead) ++edges;
    }
  }
  return edges;
}

/// Wraps one pipeline stage with before/after measurement. The critical
/// path is recomputed after every stage (a single O(V+E) distance pass —
/// negligible next to LC/merging) so the report shows how each pass moved
/// the quantity the whole compiler optimizes.
class PassTimer {
 public:
  PassTimer(std::string name, const Graph& graph, std::vector<PassReport>& out)
      : graph_(graph), out_(out) {
    report_.pass = std::move(name);
    report_.start_ns = Stopwatch::now_ns();
    report_.nodes_before = graph.live_node_count();
    report_.edges_before = count_live_edges(graph);
  }

  /// Finishes the measurement. `clusters` >= 0 marks a clustering stage.
  void done(int clusters = -1) {
    report_.end_ns = Stopwatch::now_ns();
    report_.wall_ms =
        static_cast<double>(report_.end_ns - report_.start_ns) / 1e6;
    report_.nodes_after = graph_.live_node_count();
    report_.edges_after = count_live_edges(graph_);
    report_.critical_path = analyze_parallelism(graph_).critical_path;
    report_.clusters = clusters;
    out_.push_back(report_);
  }

 private:
  const Graph& graph_;
  std::vector<PassReport>& out_;
  PassReport report_;
};

struct CompileMetrics {
  obs::Counter* compiles = obs::registry().counter(
      "ramiel_compile_total", "compile_model() invocations");
  obs::Histogram* compile_ms = obs::registry().histogram(
      "ramiel_compile_wall_ms", "End-to-end compile wall time (ms)");
};

CompileMetrics& compile_metrics() {
  static CompileMetrics* m = new CompileMetrics();
  return *m;
}

/// Coefficient of variation of per-cluster summed node weight.
double cluster_cost_cv(const Graph& g, const Clustering& clustering) {
  const std::size_t k = clustering.clusters.size();
  if (k < 2) return 0.0;
  std::vector<double> costs(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (NodeId id : clustering.clusters[c].nodes) {
      costs[c] += static_cast<double>(node_weight(g.node(id)));
    }
  }
  double mean = 0.0;
  for (double c : costs) mean += c;
  mean /= static_cast<double>(k);
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (double c : costs) var += (c - mean) * (c - mean);
  var /= static_cast<double>(k);
  return std::sqrt(var) / mean;
}

}  // namespace

CompiledModel compile_model(Graph graph, const PipelineOptions& options) {
  Stopwatch sw;
  CompiledModel out;

  if (options.constant_folding) {
    PassTimer t("constant_folding", graph, out.pass_reports);
    out.fold_stats = constant_propagation_dce(graph);
    graph = graph.compacted();
    t.done();
  }
  // Pattern-rewrite stage: pattern_rewrites enables the whole registry
  // (default-enabled rules minus overrides); without it, only the rules
  // forced on by an override run.
  bool any_forced = false;
  for (const auto& [name, on] : options.pattern_overrides) any_forced |= on;
  if (options.pattern_rewrites || any_forced) {
    patterns::PatternRunOptions popt;
    if (!options.pattern_rewrites) {
      for (const std::string& n : patterns::pattern_registry().names()) {
        popt.enable[n] = false;
      }
    }
    for (const auto& [name, on] : options.pattern_overrides) {
      popt.enable[name] = on;
    }
    PassTimer t("pattern_rewrite", graph, out.pass_reports);
    out.pattern_stats = patterns::run_patterns(graph, popt);
    t.done();
  }
  if (options.cloning) {
    PassTimer t("cloning", graph, out.pass_reports);
    out.clone_stats = clone_tasks(graph);
    t.done();
  }
  if (options.dtype != DType::kF32) {
    PassTimer t("quantize_weights", graph, out.pass_reports);
    out.quant_stats = quantize_weights(graph, options.dtype,
                                       options.calibration);
    t.done();
  }
  {
    PassTimer t("shape_inference", graph, out.pass_reports);
    infer_shapes(graph);
    graph.validate();
    t.done();
  }

  out.analysis = analyze_parallelism(graph);

  Clustering lc;
  {
    PassTimer t("linear_clustering", graph, out.pass_reports);
    lc = linear_clustering(graph);
    out.clusters_before_merge = lc.size();
    t.done(lc.size());
  }
  {
    PassTimer t("cluster_merging", graph, out.pass_reports);
    out.clustering = merge_clusters(graph, lc);
    t.done(out.clustering.size());
  }
  out.cluster_cost_cv = cluster_cost_cv(graph, out.clustering);
  {
    PassTimer t("hyperclustering", graph, out.pass_reports);
    out.hyperclusters =
        options.hyper_mode == HyperMode::kSwitched
            ? build_switched_hyperclusters(graph, out.clustering,
                                           options.batch)
            : build_hyperclusters(graph, out.clustering, options.batch);
    t.done(static_cast<int>(out.hyperclusters.workers.size()));
  }
  if (options.mem_planning) {
    PassTimer t("mem_planning", graph, out.pass_reports);
    out.mem_plan = mem::plan_memory(graph, out.hyperclusters);
    t.done(static_cast<int>(out.mem_plan.workers.size()));
  }

  if (options.generate_code) {
    PassTimer t("codegen", graph, out.pass_reports);
    CodegenOptions cg;
    cg.model_name = graph.name();
    cg.weights_path = graph.name() + ".rmb";
    out.code = generate_python(graph, out.clustering, cg);
    if (options.batch > 1) {
      out.code.hypercluster_source =
          generate_python_hyper(graph, out.hyperclusters, cg);
    }
    t.done();
  }
  out.graph = std::move(graph);
  out.compile_seconds = sw.seconds();

  compile_metrics().compiles->inc();
  compile_metrics().compile_ms->observe(out.compile_seconds * 1e3);
  return out;
}

std::unordered_map<std::string, float> record_calibration(
    const Graph& graph,
    const std::vector<std::unordered_map<std::string, Tensor>>& samples) {
  std::unordered_map<std::string, float> ranges;
  auto record = [&](const Value& v, const Tensor& t) {
    if (t.dtype() != DType::kF32 || t.numel() == 0) return;
    const float m = kernels::absmax(t.raw(), t.dtype(),
                                    static_cast<std::size_t>(t.numel()));
    auto [it, inserted] = ranges.emplace(v.name, m);
    if (!inserted && m > it->second) it->second = m;
  };
  const std::vector<NodeId> order = graph.topo_order();
  for (const auto& sample : samples) {
    std::unordered_map<ValueId, Tensor> env;
    for (const Value& v : graph.values()) {
      if (v.is_constant()) env.emplace(v.id, *v.const_data);
    }
    for (ValueId in : graph.inputs()) {
      const Value& v = graph.value(in);
      env.insert_or_assign(in, sample.at(v.name));
      record(v, sample.at(v.name));
    }
    for (NodeId id : order) {
      const Node& n = graph.node(id);
      if (n.kind == OpKind::kConstant) continue;  // output already in env
      std::vector<Tensor> ins;
      ins.reserve(n.inputs.size());
      for (ValueId v : n.inputs) ins.push_back(env.at(v));
      std::vector<Tensor> outs = eval_node(n, ins);
      for (std::size_t i = 0; i < n.outputs.size(); ++i) {
        record(graph.value(n.outputs[i]), outs[i]);
        env.insert_or_assign(n.outputs[i], std::move(outs[i]));
      }
    }
  }
  return ranges;
}

void write_calibration(const Graph& graph,
                       const std::unordered_map<std::string, float>& ranges,
                       const std::string& path) {
  std::ofstream os(path);
  for (const Value& v : graph.values()) {
    const auto it = ranges.find(v.name);
    if (it == ranges.end()) continue;
    os << it->first << '\t' << it->second << '\n';
  }
  os.close();
  RAMIEL_CHECK(!os.fail(),
               str_cat("cannot write calibration file '", path, "'"));
}

std::unordered_map<std::string, float> load_calibration(
    const std::string& path) {
  std::ifstream is(path);
  RAMIEL_CHECK(is.good(),
               str_cat("cannot read calibration file '", path, "'"));
  std::unordered_map<std::string, float> out;
  std::string line;
  for (int lineno = 1; std::getline(is, line); ++lineno) {
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos || tab == 0) continue;
    char* end = nullptr;
    const float v = std::strtof(line.c_str() + tab + 1, &end);
    if (end == line.c_str() + tab + 1) continue;
    // strtof accepts "inf", "nan" and negatives. An infinite or NaN range
    // turns the quantized outputs into NaN (which a fused Relu then hides
    // as zeros); a negative one silently falls back to dynamic scaling.
    if (!std::isfinite(v) || v < 0.0f) {
      throw Error(str_cat(path, ":", lineno, ": calibration absmax must be "
                          "finite and >= 0, got '", line.substr(tab + 1),
                          "'"));
    }
    out[line.substr(0, tab)] = v;
  }
  return out;
}

std::string compile_report_json(const CompiledModel& cm) {
  using obs::json_number;
  using obs::json_quote;
  std::string out = "{";
  out += "\"model\":" + json_quote(cm.graph.name());
  out += ",\"compile_seconds\":" + json_number(cm.compile_seconds);
  out += ",\"nodes\":" + std::to_string(cm.analysis.num_nodes);
  out += ",\"total_weight\":" +
         std::to_string(cm.analysis.total_weight);
  out += ",\"critical_path\":" + std::to_string(cm.analysis.critical_path);
  out += ",\"parallelism\":" + json_number(cm.analysis.parallelism);
  out += ",\"clusters_before_merge\":" +
         std::to_string(cm.clusters_before_merge);
  out += ",\"clusters\":" + std::to_string(cm.clustering.size());
  out += ",\"cluster_cost_cv\":" + json_number(cm.cluster_cost_cv);
  out += ",\"batch\":" + std::to_string(cm.hyperclusters.batch);
  out += ",\"folded_nodes\":" + std::to_string(cm.fold_stats.folded_nodes);
  out += ",\"dce_removed\":" + std::to_string(cm.fold_stats.dce_removed);
  out += ",\"clones_created\":" +
         std::to_string(cm.clone_stats.clones_created);
  // Per-pattern applied counts from the pattern-rewrite stage (registry
  // order; only patterns that were enabled appear). Empty "counts" when the
  // stage did not run.
  out += ",\"patterns\":{";
  out += "\"rounds\":" + std::to_string(cm.pattern_stats.rounds);
  out += ",\"total_applied\":" +
         std::to_string(cm.pattern_stats.total_applied);
  out += ",\"counts\":{";
  for (std::size_t i = 0; i < cm.pattern_stats.applied.size(); ++i) {
    if (i > 0) out += ",";
    out += json_quote(cm.pattern_stats.applied[i].first) + ":" +
           std::to_string(cm.pattern_stats.applied[i].second);
  }
  out += "}}";
  out += ",\"quantize\":{";
  out += "\"weights_quantized\":" +
         std::to_string(cm.quant_stats.weights_quantized);
  out += ",\"values_demoted\":" + std::to_string(cm.quant_stats.values_demoted);
  out += ",\"nodes_calibrated\":" +
         std::to_string(cm.quant_stats.nodes_calibrated);
  out += ",\"weight_bytes_before\":" +
         std::to_string(cm.quant_stats.weight_bytes_before);
  out += ",\"weight_bytes_after\":" +
         std::to_string(cm.quant_stats.weight_bytes_after);
  out += "}";
  out += ",\"memory\":{";
  out += "\"planned\":" + std::string(cm.mem_plan.empty() ? "false" : "true");
  out += ",\"peak_bytes\":" + std::to_string(cm.mem_plan.peak_bytes);
  out += ",\"naive_bytes\":" + std::to_string(cm.mem_plan.naive_bytes);
  out += ",\"reuse_ratio\":" + json_number(cm.mem_plan.reuse_ratio());
  out += ",\"in_place\":" + std::to_string(cm.mem_plan.in_place_count);
  out += ",\"clusters\":[";
  for (std::size_t w = 0; w < cm.mem_plan.workers.size(); ++w) {
    const mem::WorkerPlan& wp = cm.mem_plan.workers[w];
    if (w > 0) out += ",";
    out += "\n{\"worker\":" + std::to_string(w);
    out += ",\"peak_bytes\":" + std::to_string(wp.arena_bytes);
    out += ",\"naive_bytes\":" + std::to_string(wp.naive_bytes);
    const double ratio =
        wp.naive_bytes <= 0
            ? 0.0
            : 1.0 - static_cast<double>(wp.arena_bytes) /
                        static_cast<double>(wp.naive_bytes);
    out += ",\"reuse_ratio\":" + json_number(ratio);
    out += ",\"in_place\":" + std::to_string(wp.in_place_count);
    out += "}";
  }
  out += "]}";
  out += ",\"passes\":[";
  bool first = true;
  for (const PassReport& p : cm.pass_reports) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"pass\":" + json_quote(p.pass);
    out += ",\"wall_ms\":" + json_number(p.wall_ms);
    out += ",\"nodes_before\":" + std::to_string(p.nodes_before);
    out += ",\"nodes_after\":" + std::to_string(p.nodes_after);
    out += ",\"edges_before\":" + std::to_string(p.edges_before);
    out += ",\"edges_after\":" + std::to_string(p.edges_after);
    out += ",\"critical_path\":" + std::to_string(p.critical_path);
    out += ",\"clusters\":" + std::to_string(p.clusters);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void add_compile_trace(const CompiledModel& cm, obs::Timeline& timeline) {
  timeline.process_name(obs::kCompilerPid, "compiler");
  timeline.thread_name(obs::kCompilerPid, 0, cm.graph.name());
  for (const PassReport& p : cm.pass_reports) {
    std::vector<obs::Timeline::Arg> args = {
        {"nodes_before", p.nodes_before},
        {"nodes_after", p.nodes_after},
        {"edges_before", p.edges_before},
        {"edges_after", p.edges_after},
        {"critical_path", static_cast<double>(p.critical_path)},
    };
    if (p.clusters >= 0) args.emplace_back("clusters", p.clusters);
    timeline.span(p.pass, "compile", obs::kCompilerPid, 0, p.start_ns,
                  p.end_ns, std::move(args));
  }
}

}  // namespace ramiel

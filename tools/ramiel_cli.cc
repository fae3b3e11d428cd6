// ramiel — command-line front-end to the pipeline, the closest analogue of
// running the paper's tool on a model file.
//
//   ramiel list
//       Names of the bundled evaluation models.
//   ramiel export <model> <path.rml|path.rmb>
//       Write a bundled model in ONNX-lite form.
//   ramiel analyze <model|path.rml>
//       Table I metrics + cluster counts + fold statistics.
//   ramiel compile <model|path.rml> [-o DIR] [--fold] [--clone] [--batch N]
//                  [--switched] [--report FILE]
//       Full pipeline; writes <name>_parallel.py, <name>_seq.py, <name>.dot.
//       --report dumps the per-pass compile report (wall time, node/edge
//       counts before→after, clusters, critical path per pass) as JSON.
//   ramiel run <model|path.rml> [--fold] [--clone] [--batch N] [--threads N]
//              [--executor static|steal] [--mem-plan off|arena]
//              [--trace-out FILE] [--profile FILE]
//       Executes sequentially + in parallel (real threads), verifies the
//       outputs agree, and prints the simulator's modeled 12-core timings
//       (labelled "modeled": the machine model is not this host). --trace-out
//       writes a unified Chrome trace-event JSON — compile passes on the
//       compiler track plus the parallel run's task spans, message-flow
//       arrows and queue-depth counters — for Perfetto / chrome://tracing
//       slack inspection; when --profile is also given, spans on the
//       realized critical path are recolored (cat "task.critical").
//       --profile runs the critical-path profiler on the parallel run:
//       prints the latency attribution summary (compute/comm/queue/idle
//       decomposition, top ops by critical-path time, what-if estimates)
//       and writes the full CriticalPathReport JSON to FILE ("-" for
//       stdout-only). --mem-plan arena (the default; env override
//       RAMIEL_MEM_PLAN) backs intermediates with the static arena plan.
//       --executor steal (env override RAMIEL_EXECUTOR) runs the batch on
//       the work-stealing runtime instead of the static cluster placement.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/dot.h"
#include "load_model.h"
#include "models/zoo.h"
#include "obs/prof/critical_path.h"
#include "obs/trace.h"
#include "onnx/model_io.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "rt/steal/steal_executor.h"
#include "sim/simulator.h"
#include "support/env.h"
#include "support/string_util.h"

namespace {

using namespace ramiel;

int usage() {
  std::fprintf(stderr,
               "usage: ramiel <list|export|analyze|compile|run> [args]\n"
               "  ramiel list\n"
               "  ramiel export <model> <out.rml|out.rmb>\n"
               "  ramiel analyze <model|file.rml>\n"
               "  ramiel compile <model|file.rml> [-o DIR] [--fold] [--clone]"
               " [--fuse-bn] [--fuse-act] [--patterns] [--no-pattern NAME]"
               " [--dtype f32|f16|bf16|i8] [--calib FILE]"
               " [--batch N] [--switched] [--report FILE]\n"
               "  ramiel run <model|file.rml> [--fold] [--clone] [--fuse-bn]"
               " [--fuse-act] [--patterns] [--no-pattern NAME]"
               " [--dtype f32|f16|bf16|i8] [--calib FILE] [--batch N]"
               " [--threads N] [--executor static|steal]"
               " [--mem-plan off|arena] [--trace-out FILE]"
               " [--profile FILE]\n"
               "  --patterns runs every registered rewrite rule"
               " (src/passes/patterns/) to a fixed point; --no-pattern=NAME"
               " disables one rule (repeatable).\n"
               "  --dtype lowers storage to f16/bf16 or per-channel i8"
               " weights (env RAMIEL_DTYPE); --calib supplies activation"
               " ranges recorded by ramiel_calibrate.\n");
  return 2;
}

struct Cli {
  std::string model;
  std::string out_dir = ".";
  std::string trace_out;  // unified chrome://tracing JSON (compile + run)
  std::string report_out;  // per-pass compile report JSON
  std::string profile_out;  // critical-path report JSON ("-" = stdout only)
  PipelineOptions options;
  int threads = 1;
  bool mem_plan = env_mem_plan_default(true);
  ExecutorKind executor = env_executor_kind(ExecutorKind::kStatic);

  Cli() { options.dtype = env_dtype(DType::kF32); }
};

bool parse_dtype_flag(const std::string& value, Cli* cli) {
  const std::optional<DType> d = parse_dtype(value);
  if (!d) {
    std::fprintf(stderr, "--dtype expects f32|f16|bf16|i8, got '%s'\n",
                 value.c_str());
    return false;
  }
  cli->options.dtype = *d;
  return true;
}

bool parse_executor(const std::string& value, Cli* cli) {
  if (parse_executor_kind(value, &cli->executor)) return true;
  std::fprintf(stderr, "--executor expects 'static' or 'steal', got '%s'\n",
               value.c_str());
  return false;
}

bool parse_mem_plan(const std::string& value, Cli* cli) {
  if (value == "arena" || value == "on") {
    cli->mem_plan = true;
    return true;
  }
  if (value == "off") {
    cli->mem_plan = false;
    return true;
  }
  std::fprintf(stderr, "--mem-plan expects 'off' or 'arena', got '%s'\n",
               value.c_str());
  return false;
}

bool parse_flags(int argc, char** argv, int start, Cli* cli) {
  // --fuse-bn / --fuse-act force their rule on, whatever --no-pattern says.
  std::vector<std::string> forced_on;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fold") {
      cli->options.constant_folding = true;
    } else if (arg == "--clone") {
      cli->options.cloning = true;
    } else if (arg == "--fuse-bn") {
      forced_on.push_back("fold-batch-norms");
    } else if (arg == "--fuse-act") {
      forced_on.push_back("fuse-activations");
    } else if (arg == "--patterns") {
      cli->options.pattern_rewrites = true;
    } else if (arg == "--no-pattern" && i + 1 < argc) {
      cli->options.pattern_overrides[argv[++i]] = false;
    } else if (arg.rfind("--no-pattern=", 0) == 0) {
      cli->options.pattern_overrides[arg.substr(
          std::strlen("--no-pattern="))] = false;
    } else if (arg == "--dtype" && i + 1 < argc) {
      if (!parse_dtype_flag(argv[++i], cli)) return false;
    } else if (arg.rfind("--dtype=", 0) == 0) {
      if (!parse_dtype_flag(arg.substr(std::strlen("--dtype=")), cli)) {
        return false;
      }
    } else if (arg == "--calib" && i + 1 < argc) {
      cli->options.calibration = load_calibration(argv[++i]);
    } else if (arg.rfind("--calib=", 0) == 0) {
      cli->options.calibration =
          load_calibration(arg.substr(std::strlen("--calib=")));
    } else if (arg == "--switched") {
      cli->options.hyper_mode = HyperMode::kSwitched;
    } else if (arg == "--batch" && i + 1 < argc) {
      cli->options.batch = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      cli->threads = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      cli->trace_out = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      cli->profile_out = argv[++i];
    } else if (arg.rfind("--profile=", 0) == 0) {
      cli->profile_out = arg.substr(std::strlen("--profile="));
    } else if (arg == "--report" && i + 1 < argc) {
      cli->report_out = argv[++i];
    } else if (arg == "--executor" && i + 1 < argc) {
      if (!parse_executor(argv[++i], cli)) return false;
    } else if (arg.rfind("--executor=", 0) == 0) {
      if (!parse_executor(arg.substr(std::strlen("--executor=")), cli)) {
        return false;
      }
    } else if (arg == "--mem-plan" && i + 1 < argc) {
      if (!parse_mem_plan(argv[++i], cli)) return false;
    } else if (arg.rfind("--mem-plan=", 0) == 0) {
      if (!parse_mem_plan(arg.substr(std::strlen("--mem-plan=")), cli)) {
        return false;
      }
    } else if (arg == "-o" && i + 1 < argc) {
      cli->out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  for (const std::string& name : forced_on) {
    cli->options.pattern_overrides[name] = true;
  }
  return true;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

int cmd_list() {
  for (const std::string& name : models::model_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_export(const std::string& model, const std::string& path) {
  Graph g = load_any(model);
  save_model_file(g, path);
  std::printf("wrote %s (%d nodes)\n", path.c_str(), g.live_node_count());
  return 0;
}

int cmd_analyze(const std::string& spec) {
  Graph g = load_any(spec);
  CompiledModel cm = compile_model(std::move(g), PipelineOptions{});
  std::printf("model         : %s\n", cm.graph.name().c_str());
  std::printf("nodes         : %d\n", cm.analysis.num_nodes);
  std::printf("wt. node cost : %lld\n",
              static_cast<long long>(cm.analysis.total_weight));
  std::printf("wt. crit path : %lld\n",
              static_cast<long long>(cm.analysis.critical_path));
  std::printf("parallelism   : %.2fx\n", cm.analysis.parallelism);
  std::printf("clusters      : %d (LC) -> %d (merged)\n",
              cm.clusters_before_merge, cm.clustering.size());

  Graph folded = load_any(spec);
  FoldStats stats = constant_propagation_dce(folded);
  std::printf("foldable      : %d nodes folded, %d removed by DCE\n",
              stats.folded_nodes, stats.dce_removed);
  std::printf("compile time  : %.1f ms\n", cm.compile_seconds * 1e3);
  return 0;
}

int cmd_compile(const Cli& cli) {
  CompiledModel cm = compile_model(load_any(cli.model), cli.options);
  const std::string base = cli.out_dir + "/" + cm.graph.name();
  write_file(base + "_parallel.py", cm.code.parallel_source);
  write_file(base + "_seq.py", cm.code.sequential_source);
  if (!cm.code.hypercluster_source.empty()) {
    write_file(base + "_hyper.py", cm.code.hypercluster_source);
  }
  write_file(base + ".dot", to_dot(cm.graph, cm.clustering.cluster_of));
  if (!cli.report_out.empty()) {
    write_file(cli.report_out, compile_report_json(cm));
  }
  std::printf(
      "%s: %d clusters, %d queue messages, batch %d, compile %.1f ms\n",
      cm.graph.name().c_str(), cm.clustering.size(), cm.code.num_messages,
      cm.hyperclusters.batch, cm.compile_seconds * 1e3);
  if (cm.pattern_stats.rounds > 0) {
    std::string counts;
    for (const auto& [name, applied] : cm.pattern_stats.applied) {
      counts += str_cat(counts.empty() ? "" : " ", name, "=", applied);
    }
    std::printf("patterns: %s (%d rounds, %d rewrites)\n", counts.c_str(),
                cm.pattern_stats.rounds, cm.pattern_stats.total_applied);
  }
  if (cli.options.dtype != DType::kF32) {
    std::printf(
        "dtype: %s (%d weights rewritten, %lld -> %lld KiB, %d values"
        " demoted, %d calibrated)\n",
        dtype_name(cli.options.dtype), cm.quant_stats.weights_quantized,
        static_cast<long long>(cm.quant_stats.weight_bytes_before / 1024),
        static_cast<long long>(cm.quant_stats.weight_bytes_after / 1024),
        cm.quant_stats.values_demoted, cm.quant_stats.nodes_calibrated);
  }
  return 0;
}

int cmd_run(const Cli& cli) {
  PipelineOptions opts = cli.options;
  opts.generate_code = false;
  CompiledModel cm = compile_model(load_any(cli.model), opts);
  const int batch = opts.batch;

  Rng rng(1);
  auto inputs = make_example_inputs(cm.graph, batch, rng);
  SequentialExecutor seq(&cm.graph);
  std::unique_ptr<Executor> par =
      make_executor(cli.executor, &cm.graph, cm.hyperclusters,
                    cli.mem_plan ? &cm.mem_plan : nullptr);
  RunOptions run_opts;
  run_opts.intra_op_threads = cli.threads;
  run_opts.trace = !cli.trace_out.empty() || !cli.profile_out.empty();

  Profile sp, pp;
  auto a = seq.run(inputs, run_opts, &sp);
  auto b = par->run(inputs, run_opts, &pp);

  prof::CriticalPathReport report;
  if (!cli.profile_out.empty()) {
    report = prof::analyze(cm.graph, cm.hyperclusters, pp);
    std::fputs(report.summary().c_str(), stdout);
    if (cli.profile_out != "-") {
      write_file(cli.profile_out, report.to_json());
    }
  }
  if (!cli.trace_out.empty()) {
    obs::Timeline timeline;
    add_compile_trace(cm, timeline);
    // With a report in hand, recolor spans on the realized critical path.
    const auto critical = report.critical_tasks();
    pp.to_timeline(cm.graph, timeline, /*flow_id_base=*/0,
                   report.valid ? &critical : nullptr);
    write_file(cli.trace_out, timeline.to_chrome_json());
  }
  bool match = true;
  for (int s = 0; s < batch; ++s) {
    for (const auto& [key, value] : a[static_cast<std::size_t>(s)]) {
      if (!b[static_cast<std::size_t>(s)].count(key) ||
          !allclose(value, b[static_cast<std::size_t>(s)].at(key), 1e-4f,
                    1e-3f)) {
        match = false;
      }
    }
  }
  std::printf("outputs match : %s\n", match ? "yes" : "NO");
  if (opts.dtype != DType::kF32) {
    std::printf("dtype         : %s (%d weights rewritten, %d values demoted,"
                " %d calibrated)\n",
                dtype_name(opts.dtype), cm.quant_stats.weights_quantized,
                cm.quant_stats.values_demoted,
                cm.quant_stats.nodes_calibrated);
  }
  if (par->kind() == ExecutorKind::kSteal) {
    int stolen = 0, tasks = 0;
    for (const WorkerProfile& w : pp.workers) {
      stolen += w.tasks_stolen;
      tasks += w.tasks;
    }
    std::printf("executor      : steal (%d workers, %d tasks, %d stolen)\n",
                par->num_workers(), tasks, stolen);
  } else {
    std::printf("executor      : static (%d workers)\n", par->num_workers());
  }
  std::printf("host wall     : seq %.1f ms, par %.1f ms (recv slack %.1f ms)\n",
              sp.wall_ms, pp.wall_ms, pp.total_slack_ms());
  if (par->mem_plan_enabled()) {
    int avoided = 0;
    for (const WorkerProfile& w : pp.workers) avoided += w.allocs_avoided;
    std::printf(
        "memory plan   : arena %.1f KiB (naive %.1f KiB, %.0f%% reuse),"
        " %d in-place, %d allocs avoided\n",
        static_cast<double>(cm.mem_plan.peak_bytes) / 1024.0,
        static_cast<double>(cm.mem_plan.naive_bytes) / 1024.0,
        cm.mem_plan.reuse_ratio() * 100.0, cm.mem_plan.in_place_count,
        avoided);
  } else {
    std::printf("memory plan   : off (heap allocation per intermediate)\n");
  }

  CostProfile profile = measure_costs(cm.graph, 3, rng);
  SimOptions sim;
  sim.intra_op_threads = cli.threads;
  const double seq_sim = simulate_sequential_ms(cm.graph, profile, batch, sim);
  SimResult par_sim = simulate_parallel(cm.graph, cm.hyperclusters, profile,
                                        sim);
  SimResult steal_sim = simulate_steal(cm.graph, cm.hyperclusters, profile,
                                       sim);
  // Modeled, not measured: the MachineModel describes the paper's 12-core
  // machine running generated Python, not this runtime on this host.
  std::printf(
      "sim (12-core) : seq %.1f ms, par %.1f ms -> speedup %.2fx (modeled)\n",
      seq_sim, par_sim.makespan_ms, seq_sim / par_sim.makespan_ms);
  std::printf("sim steal     : %.1f ms -> %.2fx vs static (modeled)\n",
              steal_sim.makespan_ms,
              par_sim.makespan_ms / steal_sim.makespan_ms);
  return match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "export" && argc >= 4) return cmd_export(argv[2], argv[3]);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argv[2]);
    if ((cmd == "compile" || cmd == "run") && argc >= 3) {
      Cli cli;
      cli.model = argv[2];
      if (!parse_flags(argc, argv, 3, &cli)) return usage();
      return cmd == "compile" ? cmd_compile(cli) : cmd_run(cli);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

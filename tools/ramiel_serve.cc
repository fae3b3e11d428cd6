// ramiel_serve — serve one model and drive it with in-process load (clients
// are threads in this process, which is also what the serving bench and
// tests do). The server is a one-tenant fleet::FleetServer on a
// partitioned pool: admission -> per-tenant batch fill -> executor. A
// batch is whatever is queued when the previous one finishes (never a
// wait for batch-mates), up to --batch.
//
//   ramiel_serve <model|path.rml> [flags]
//     --batch N        serving batch size / hyperclustering batch (default 4)
//     --switched       switched hyperclustering (§III-E, Fig. 9)
//     --fold           constant propagation + DCE before clustering
//     --clone          task cloning before clustering
//     --threads N      intra-op threads per worker (default
//                      $RAMIEL_INTRA_OP_THREADS or 1)
//     --dtype D        storage dtype f32|f16|bf16|i8 (default $RAMIEL_DTYPE
//                      or f32); non-f32 runs the quantize_weights stage
//     --calib FILE     calibration ranges for --dtype i8 (ramiel_calibrate)
//     --queue-depth N  admission-control bound (default
//                      $RAMIEL_SERVE_QUEUE_DEPTH or 256)
//     --mem-plan M     'arena' (default; $RAMIEL_MEM_PLAN) backs
//                      intermediates with the static arena plan, 'off'
//                      heap-allocates per intermediate
//     --executor E     'static' (default; $RAMIEL_EXECUTOR) pins one worker
//                      per hypercluster, 'steal' runs the work-stealing
//                      runtime, 'auto' picks steal when the compiled model's
//                      cluster-cost variation exceeds $RAMIEL_AUTO_STEAL_CV
//     --arrival A      'closed' (default): C closed-loop clients;
//                      'poisson:RATE': open-loop Poisson arrivals at RATE
//                      req/s for as long as N requests would take at RATE
//     --requests N     total requests to serve (default 200)
//     --clients C      concurrent closed-loop clients (default 8)
//     --think-us U     per-client think time between requests (default 0)
//     --trace-out F    unified Chrome trace JSON: compile passes, every
//                      batch dispatch, and the slowest batch's task spans,
//                      message-flow arrows and queue-depth counters
//     --no-profile     disable the always-on tail profiler (exemplar
//                      sampling of slowest batches + critical-path reports;
//                      with --trace-out the slowest batch is still recorded)
//     --profile-out F  write the retained slow-batch exemplar reports
//                      (prof::CriticalPathReport JSON, slowest first)
//     --metrics-out F  append one ServerStats JSON line per interval
//                      (period: $RAMIEL_METRICS_INTERVAL_MS, default 1000)
//     --prom-out F     rewrite a Prometheus textfile each interval with the
//                      full obs registry (serve + runtime + compiler)
//
// Prints the ServerStats report: throughput, latency percentiles,
// batch-fill ratio, rejections, per-worker utilization — and, when the
// profiler is on, the tail-attribution block: which ops on the realized
// critical path of the slowest batch ate the p99.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "load_model.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "ramiel/pipeline.h"
#include "serve/fleet/fleet_server.h"
#include "serve/loadgen.h"
#include "serve/metrics_emitter.h"
#include "support/string_util.h"

namespace {

using namespace ramiel;

int usage() {
  std::fprintf(stderr,
               "usage: ramiel_serve <model|file.rml> [--batch N] [--switched]"
               " [--fold] [--clone]\n"
               "                    [--dtype f32|f16|bf16|i8] [--calib FILE]\n"
               "                    [--threads N] [--queue-depth N]"
               " [--mem-plan off|arena]\n"
               "                    [--executor static|steal|auto]\n"
               "                    [--arrival closed|poisson:RATE]\n"
               "                    [--requests N] [--clients C]"
               " [--think-us U]\n"
               "                    [--trace-out FILE] [--metrics-out FILE]"
               " [--prom-out FILE]\n"
               "                    [--no-profile] [--profile-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string spec = argv[1];

  serve::fleet::FleetConfig config = serve::fleet::single_tenant_config(spec);
  serve::fleet::ModelConfig& model = config.models[0];
  serve::fleet::FleetOptions fleet_opts =
      serve::fleet::single_tenant_options();
  bool profile = true;
  serve::LoadOptions load;
  load.clients = 8;
  load.requests = 200;
  serve::ArrivalSpec arrival;
  std::string trace_out;
  std::string profile_out;
  serve::MetricsEmitterOptions emitter_opts;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--switched") {
      model.hyper = HyperMode::kSwitched;
    } else if (arg == "--fold") {
      model.fold = true;
    } else if (arg == "--clone") {
      model.clone = true;
    } else if (arg == "--batch" && i + 1 < argc) {
      model.batch = std::atoi(argv[++i]);
    } else if ((arg == "--dtype" && i + 1 < argc) ||
               arg.rfind("--dtype=", 0) == 0) {
      const std::string value =
          arg == "--dtype" ? argv[++i] : arg.substr(arg.find('=') + 1);
      const auto dt = parse_dtype(value);
      if (!dt) {
        std::fprintf(stderr, "--dtype expects f32, f16, bf16 or i8\n");
        return usage();
      }
      model.dtype = *dt;
    } else if ((arg == "--calib" && i + 1 < argc) ||
               arg.rfind("--calib=", 0) == 0) {
      model.calib =
          arg == "--calib" ? argv[++i] : arg.substr(arg.find('=') + 1);
    } else if (arg == "--threads" && i + 1 < argc) {
      fleet_opts.intra_op_threads = std::atoi(argv[++i]);
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      model.queue_depth = std::atoi(argv[++i]);
    } else if ((arg == "--mem-plan" && i + 1 < argc) ||
               arg.rfind("--mem-plan=", 0) == 0) {
      const std::string value =
          arg == "--mem-plan" ? argv[++i] : arg.substr(arg.find('=') + 1);
      if (value == "arena" || value == "on") {
        fleet_opts.mem_plan = true;
      } else if (value == "off") {
        fleet_opts.mem_plan = false;
      } else {
        std::fprintf(stderr, "--mem-plan expects 'off' or 'arena'\n");
        return usage();
      }
    } else if ((arg == "--executor" && i + 1 < argc) ||
               arg.rfind("--executor=", 0) == 0) {
      const std::string value =
          arg == "--executor" ? argv[++i] : arg.substr(arg.find('=') + 1);
      if (!parse_executor_kind(value, &model.executor,
                               /*allow_auto=*/true)) {
        std::fprintf(stderr,
                     "--executor expects 'static', 'steal' or 'auto'\n");
        return usage();
      }
    } else if (arg == "--arrival" && i + 1 < argc) {
      std::string error;
      if (!serve::parse_arrival(argv[++i], &arrival, &error)) {
        std::fprintf(stderr, "--arrival: %s\n", error.c_str());
        return usage();
      }
    } else if (arg == "--requests" && i + 1 < argc) {
      load.requests = std::atoi(argv[++i]);
    } else if (arg == "--clients" && i + 1 < argc) {
      load.clients = std::atoi(argv[++i]);
    } else if (arg == "--think-us" && i + 1 < argc) {
      load.think_us = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      fleet_opts.trace = true;
    } else if (arg == "--no-profile") {
      profile = false;
    } else if (arg == "--profile-out" && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      emitter_opts.jsonl_path = argv[++i];
    } else if (arg == "--prom-out" && i + 1 < argc) {
      emitter_opts.prom_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  // The trace shows the slowest batch's task spans, so --trace-out records
  // them even under --no-profile (which then only skips the attribution).
  fleet_opts.profile = profile || !trace_out.empty();

  try {
    std::printf("compiling %s (batch %d, %s hyperclustering, dtype %s)...\n",
                spec.c_str(), model.batch,
                model.hyper == HyperMode::kSwitched ? "switched" : "plain",
                dtype_name(model.dtype));
    // Load once up front: an unknown spec fails before any thread starts,
    // and the tenant is named after the graph like every metric label.
    Graph graph = load_any(spec);
    model.name = graph.name();
    serve::fleet::FleetServer fleet(
        config, fleet_opts,
        [&graph](const std::string&) { return graph; });
    const std::string& name = model.name;
    const auto entry = fleet.model_entry(name);
    const CompiledModel& cm = entry->compiled;
    std::printf("%s: %d clusters, compile %.1f ms\n", cm.graph.name().c_str(),
                cm.clustering.size(), cm.compile_seconds * 1e3);
    std::printf(
        "serving: batch %d, queue depth %d, intra-op %d, "
        "mem-plan %s, executor %s%s (cluster-cost cv %.2f); "
        "load: %d clients x %d requests\n\n",
        model.batch, model.queue_depth, fleet_opts.intra_op_threads, fleet_opts.mem_plan ? "arena" : "off",
        to_string(entry->executor),
        model.executor == ExecutorKind::kAuto ? " (auto)" : "",
        cm.cluster_cost_cv, load.clients, load.requests);

    std::unique_ptr<serve::MetricsEmitter> emitter;
    if (!emitter_opts.jsonl_path.empty() || !emitter_opts.prom_path.empty()) {
      emitter = std::make_unique<serve::MetricsEmitter>(
          [&fleet, &name] { return fleet.tenant_window_stats(name); },
          emitter_opts);
    }

    const serve::SubmitFn submit = [&fleet, &name](TensorMap inputs) {
      return fleet.submit(name, std::move(inputs));
    };
    serve::LoadReport report;
    if (arrival.open_loop) {
      serve::OpenLoopOptions open;
      open.rate_rps = arrival.rate_rps;
      open.duration_ms =
          static_cast<double>(load.requests) / arrival.rate_rps * 1e3;
      std::printf("open loop: poisson arrivals at %.1f req/s for %.1f s\n",
                  open.rate_rps, open.duration_ms / 1e3);
      report = serve::run_open_loop(submit, cm.graph, open);
    } else {
      report = serve::run_closed_loop(submit, cm.graph, load);
    }
    fleet.shutdown();
    if (emitter) {
      emitter->stop();
      if (!emitter_opts.jsonl_path.empty()) {
        std::printf("wrote %s (%d snapshots)\n",
                    emitter_opts.jsonl_path.c_str(), emitter->emits());
      }
      if (!emitter_opts.prom_path.empty()) {
        std::printf("wrote %s\n", emitter_opts.prom_path.c_str());
      }
    }
    std::vector<serve::fleet::TailExemplar> exemplars =
        fleet.tail_exemplars(name);
    if (!trace_out.empty()) {
      obs::Timeline timeline;
      add_compile_trace(cm, timeline);
      fleet.append_trace(timeline);
      std::ofstream os(trace_out);
      os << timeline.to_chrome_json();
      std::printf("wrote %s (%zu trace events, slowest batch %.2f ms)\n",
                  trace_out.c_str(), timeline.size(),
                  exemplars.empty() ? 0.0 : exemplars.front().wall_ms);
    }

    if (!profile) exemplars.clear();  // recorded for the trace only

    std::printf("%s\n", fleet.tenant_stats(name).to_string().c_str());
    if (!exemplars.empty()) {
      std::printf("tail attribution (slowest batch):\n%s\n",
                  exemplars.front().report.summary().c_str());
    }
    if (!profile_out.empty()) {
      std::string doc = "[";
      for (std::size_t i = 0; i < exemplars.size(); ++i) {
        if (i != 0) doc += ",";
        doc += "{\"wall_ms\":" + obs::json_number(exemplars[i].wall_ms) +
               ",\"dispatch_ns\":" +
               std::to_string(exemplars[i].dispatch_ns) +
               ",\"report\":" + exemplars[i].report.to_json() + "}";
      }
      doc += "]";
      std::ofstream os(profile_out);
      os << doc << "\n";
      std::printf("wrote %s (%zu slow-batch exemplars)\n", profile_out.c_str(),
                  exemplars.size());
    }
    std::printf("load gen      : %d completed, %d rejected, %d failed in "
                "%.1f s (%.1f req/s achieved)\n",
                report.completed, report.rejected, report.failed,
                report.wall_ms / 1e3, report.achieved_rps);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// ramiel_fleet — host N models behind one multi-tenant fleet server and
// drive every tenant with in-process load (the container has no network
// stack; offered traffic is threads in this process, as in ramiel_serve).
//
//   ramiel_fleet [flags]
//     --config FILE    fleet JSON config (see src/serve/fleet/config.h for
//                      the schema). Without it a built-in two-tenant demo
//                      runs: squeezenet (interactive, quota 40 rps,
//                      weight 2) + bert (batch class, quota 160 rps) — the
//                      README's worked 4x-quota example.
//     --pool P         override the config's pool mode: shared|partitioned
//     --duration-s X   offered-load window per tenant (default 2.0)
//     --arrival A      closed | poisson:RATE (default poisson — open loop;
//                      without an explicit RATE each tenant offers
//                      1.5x its quota_rps, i.e. deliberately above quota,
//                      or 50 rps when unlimited)
//     --clients C      closed-loop clients per tenant (default 4)
//     --threads N      intra-op threads per worker (default 1)
//     --stats-out F    write the per-tenant strict-JSON stats array
//     --trace-out F    Chrome trace JSON with one track per tenant
//
// Prints a per-tenant report (admission accounting, window percentiles,
// pipeline stages + modeled speedup) and the Jain fairness index over
// per-tenant completions.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "serve/fleet/config.h"
#include "serve/fleet/fleet_server.h"
#include "serve/loadgen.h"
#include "support/string_util.h"

namespace {

using namespace ramiel;
using serve::fleet::FleetConfig;
using serve::fleet::FleetServer;
using serve::fleet::ModelConfig;

int usage() {
  std::fprintf(stderr,
               "usage: ramiel_fleet [--config FILE] [--pool shared|partitioned]\n"
               "                    [--duration-s X] [--arrival closed|poisson:RATE]\n"
               "                    [--clients C] [--threads N]\n"
               "                    [--stats-out FILE] [--trace-out FILE]\n");
  return 2;
}

/// The built-in demo fleet: an interactive tenant with 2x the dequeue
/// weight next to a batch-class tenant offered 4x its neighbor's quota.
FleetConfig demo_config() {
  FleetConfig config;
  ModelConfig squeezenet;
  squeezenet.name = "squeezenet";
  squeezenet.batch = 4;
  squeezenet.slo_class = "interactive";
  squeezenet.quota_rps = 40.0;
  squeezenet.weight = 2.0;
  ModelConfig bert;
  bert.name = "bert";
  bert.batch = 4;
  bert.slo_class = "batch";
  bert.quota_rps = 160.0;
  bert.weight = 1.0;
  config.models = {squeezenet, bert};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string pool_override;
  std::string stats_out;
  std::string trace_out;
  double duration_s = 2.0;
  serve::ArrivalSpec arrival;
  arrival.open_loop = true;
  int clients = 4;
  serve::fleet::FleetOptions fleet_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--pool" && i + 1 < argc) {
      pool_override = argv[++i];
    } else if (arg == "--duration-s" && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (arg == "--arrival" && i + 1 < argc) {
      std::string error;
      if (!serve::parse_arrival(argv[++i], &arrival, &error)) {
        std::fprintf(stderr, "--arrival: %s\n", error.c_str());
        return usage();
      }
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      fleet_opts.intra_op_threads = std::atoi(argv[++i]);
    } else if (arg == "--stats-out" && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      fleet_opts.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }

  try {
    FleetConfig config;
    if (config_path.empty()) {
      config = demo_config();
    } else {
      std::ifstream is(config_path);
      if (!is) throw Error(str_cat("cannot open '", config_path, "'"));
      std::ostringstream buffer;
      buffer << is.rdbuf();
      std::string error;
      if (!serve::fleet::parse_fleet_config(buffer.str(), &config, &error)) {
        throw Error(str_cat(config_path, ": ", error));
      }
    }
    if (!pool_override.empty()) config.pool = pool_override;

    std::printf("compiling %zu models (%s pool)...\n", config.models.size(),
                config.pool.c_str());
    FleetServer fleet(config, fleet_opts);
    for (const ModelConfig& mc : config.models) {
      auto entry = fleet.model_entry(mc.name);
      std::printf(
          "  %-12s batch %d, executor %s, quota %.0f rps, weight %.1f, "
          "slo %s%s\n",
          mc.name.c_str(), mc.batch, to_string(entry->executor),
          mc.quota_rps, mc.weight, mc.slo_class.c_str(),
          mc.pipeline_stages > 1
              ? str_cat(", ", mc.pipeline_stages, " pipeline stages").c_str()
              : "");
    }

    // One offering thread per tenant, all racing for the same machine —
    // that contention is the experiment. A driver that throws (bad load
    // flags) keeps its exception for the main thread, which rethrows it once
    // every driver is joined and the fleet is shut down.
    std::vector<serve::LoadReport> reports(config.models.size());
    std::vector<std::exception_ptr> errors(config.models.size());
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < config.models.size(); ++i) {
      const ModelConfig& mc = config.models[i];
      drivers.emplace_back([&, i, mc] {
        try {
          auto entry = fleet.model_entry(mc.name);
          serve::SubmitFn submit = [&fleet, name = mc.name](TensorMap in) {
            return fleet.submit(name, std::move(in));
          };
          if (arrival.open_loop) {
            serve::OpenLoopOptions open;
            open.rate_rps =
                arrival.rate_rps > 0.0
                    ? arrival.rate_rps
                    : (mc.quota_rps > 0.0 ? mc.quota_rps * 1.5 : 50.0);
            open.duration_ms = duration_s * 1e3;
            open.seed = static_cast<unsigned>(i + 1);
            reports[i] =
                serve::run_open_loop(submit, entry->compiled.graph, open);
          } else {
            serve::LoadOptions closed;
            closed.clients = clients;
            // Closed loops measure responses, not time: size the run to the
            // tenant's quota over the window so each tenant offers its share.
            const double rate = mc.quota_rps > 0.0 ? mc.quota_rps : 50.0;
            closed.requests =
                std::max(8, static_cast<int>(rate * duration_s));
            closed.max_consecutive_rejects = 200;
            closed.seed = static_cast<unsigned>(i + 1);
            reports[i] =
                serve::run_closed_loop(submit, entry->compiled.graph, closed);
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& d : drivers) d.join();
    fleet.shutdown();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    std::printf("\n%-12s %4s %6s %8s %8s %8s %6s %9s %9s\n", "tenant", "ver",
                "stages", "admitted", "rej_q", "rej_full", "aged", "p50 ms",
                "p99 ms");
    std::vector<double> completions;
    for (const serve::fleet::TenantReport& r : fleet.report()) {
      std::printf("%-12s %4d %6d %8llu %8llu %8llu %6llu %9.2f %9.2f\n",
                  r.name.c_str(), r.version, r.pipeline_stages,
                  static_cast<unsigned long long>(r.admission.admitted),
                  static_cast<unsigned long long>(r.admission.rejected_quota),
                  static_cast<unsigned long long>(r.admission.rejected_full),
                  static_cast<unsigned long long>(r.admission.aged),
                  r.stats.window_latency.p50_ms,
                  r.stats.window_latency.p99_ms);
      if (r.pipeline_stages > 1) {
        std::printf("%-12s   pipelined: modeled steady-state speedup %.2fx\n",
                    "", r.modeled_pipeline_speedup);
      }
    }
    for (std::size_t i = 0; i < config.models.size(); ++i) {
      const serve::LoadReport& lr = reports[i];
      std::printf("%-12s load: %d offered, %d completed, %d rejected, "
                  "%d failed (%.1f req/s achieved)\n",
                  config.models[i].name.c_str(), lr.offered, lr.completed,
                  lr.rejected, lr.failed, lr.achieved_rps);
      completions.push_back(static_cast<double>(lr.completed));
    }
    std::printf("jain fairness index over completions: %.3f\n",
                serve::fleet::jain_fairness(completions));

    if (!stats_out.empty()) {
      std::ofstream os(stats_out);
      os << fleet.stats_json() << "\n";
      std::printf("wrote %s\n", stats_out.c_str());
    }
    if (!trace_out.empty()) {
      obs::Timeline timeline;
      fleet.append_trace(timeline);
      std::ofstream os(trace_out);
      os << timeline.to_chrome_json();
      std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                  timeline.size());
    }

    int failed = 0;
    for (const serve::LoadReport& lr : reports) failed += lr.failed;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

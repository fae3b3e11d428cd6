// Serving throughput: offered load x batch size x plain-vs-switched
// hypermode, for Squeezenet and BERT — plus the static vs work-stealing
// executor comparison across the zoo and a synthetically skewed placement.
//
// Each configuration stands up a one-tenant fleet::FleetServer compiled at
// that batch size (admission -> per-tenant batch fill -> reused executor,
// the ramiel_serve set-up) and drives it with closed-loop clients.
// Reported per config:
//
//   measured  — sustained req/s, p50/p99 latency and batch-fill ratio of
//               the real threaded server ON THIS CONTAINER. The container
//               exposes one CPU core (see DESIGN.md), so cross-batch
//               overlap cannot materialize here and measured batch scaling
//               reflects only dispatch-overhead amortization, within host
//               noise.
//   sim 12c   — throughput of the same hyperclustered schedule replayed by
//               the discrete-event simulator on the modeled 12-core
//               machine (the paper's testbed shape), where batch-4 dynamic
//               batching shows its real gain over batch-1 serving.
//
// A final saturation row per model offers more load than a depth-4 queue
// admits, demonstrating bounded-queue admission control: excess requests
// are rejected promptly while the server keeps serving.
//
// The executor section compares the static cluster-pinned runtime against
// the work-stealing runtime (src/rt/steal/): measured serving throughput
// for squeezenet/bert, 12-core simulated makespans across the whole zoo,
// and a synthetically skewed 48:1 clustering where dynamic stealing
// recovers the parallelism the static placement strands.
//
// The pipelining section puts each model's modeled stage-cut speedup next
// to measured closed-loop req/s of the pipelined tenant and of the plain
// one; the runs-in-flight section measures one executor's samples/s with 1
// vs 2 concurrent callers; the short-run section measures what a run of one
// sample costs on a batch-4 executor next to a full run of four.
//
// The knee/overload section offers open-loop Poisson load at 0.8x and 2x of
// a closed-loop capacity measured in the same process.
//
// Knobs: RAMIEL_SERVE_REQUESTS (default 96), RAMIEL_SERVE_CLIENTS (8),
// RAMIEL_FLEET_DURATION_MS (3000; the fleet and knee/overload windows).
// --json-out FILE appends every row to FILE as a JSON array, the format
// committed as BENCH_serve.json to track the trajectory across PRs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/shape_inference.h"
#include "obs/json.h"
#include "passes/clustering.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "serve/fleet/fleet_server.h"
#include "serve/fleet/pipeline.h"
#include "serve/loadgen.h"
#include "sim/cost_profile.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/string_util.h"

namespace {

using namespace ramiel;
using namespace ramiel::serve;

struct Config {
  int batch;
  HyperMode mode;
  const char* label;
};

/// One benchmark observation, flattened for the JSON trajectory file.
struct JsonRow {
  std::string section;
  std::string model;
  std::string config;
  std::vector<std::pair<std::string, double>> metrics;
  /// "measured" or "modeled" when the row says which it is ("" = unset).
  std::string label;
};

std::vector<JsonRow> g_rows;

void record(std::string section, std::string model, std::string config,
            std::vector<std::pair<std::string, double>> metrics,
            std::string label = "") {
  g_rows.push_back({std::move(section), std::move(model), std::move(config),
                    std::move(metrics), std::move(label)});
}

void write_json(const std::string& path) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& r = g_rows[i];
    os << "  {\"section\":" << obs::json_quote(r.section)
       << ",\"model\":" << obs::json_quote(r.model)
       << ",\"config\":" << obs::json_quote(r.config);
    if (!r.label.empty()) os << ",\"label\":" << obs::json_quote(r.label);
    for (const auto& [key, value] : r.metrics) {
      os << ",\"" << key << "\":" << obs::json_number(value);
    }
    os << "}" << (i + 1 < g_rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

// Simulated 12-core samples/s for this model at this batch/mode.
double sim_rps(const std::string& model, int batch, HyperMode mode) {
  bench::PreparedModel pm = bench::prepare(model);
  Hyperclustering hc =
      mode == HyperMode::kSwitched
          ? build_switched_hyperclusters(pm.compiled.graph,
                                         pm.compiled.clustering, batch)
          : build_hyperclusters(pm.compiled.graph, pm.compiled.clustering,
                                batch);
  SimOptions sim;
  const double makespan_ms =
      simulate_parallel(pm.compiled.graph, hc, pm.profile, sim).makespan_ms;
  return makespan_ms <= 0.0 ? 0.0 : batch / (makespan_ms / 1e3);
}

/// Drives the one tenant of `fleet` with a closed loop, shuts the fleet
/// down and returns the tenant's final stats (and the load report through
/// `report`). Callers keep the fleet alive through the row's cost
/// profiling (sim_rps): freeing it first measured bert's kernel costs
/// ~1.4x slower, likely through allocator state.
ServerStats serve_closed_loop(serve::fleet::FleetServer& fleet,
                              const serve::LoadOptions& load,
                              serve::LoadReport* report = nullptr) {
  const std::string name = fleet.models().front();
  serve::SubmitFn submit = [&fleet, name](TensorMap inputs) {
    return fleet.submit(name, std::move(inputs));
  };
  const serve::LoadReport rep = serve::run_closed_loop(
      submit, fleet.model_entry(name)->compiled.graph, load);
  if (report != nullptr) *report = rep;
  fleet.shutdown();
  return fleet.tenant_stats(name);
}

/// Measured closed-loop serving throughput with the given executor.
ServerStats measured_serve(const std::string& model, ExecutorKind executor,
                           int requests, int clients, bool profile = true) {
  serve::fleet::FleetConfig config = serve::fleet::single_tenant_config(model);
  config.models[0].executor = executor;
  serve::fleet::FleetOptions options = serve::fleet::single_tenant_options();
  options.profile = profile;
  serve::fleet::FleetServer fleet(config, options);
  serve::LoadOptions load;
  load.clients = clients;
  load.requests = requests;
  return serve_closed_loop(fleet, load);
}

/// Static-vs-steal executor comparison: measured on this container for two
/// models, simulated on the 12-core machine for the whole zoo plus one
/// synthetically skewed placement.
void executor_comparison(int requests, int clients) {
  bench::print_header(
      "Executor comparison — static cluster placement vs work stealing\n"
      "(measured = this container; sim 12c = modeled 12-core makespan)");

  std::printf("%-12s | %9s %9s | measured, batch 4\n", "Model", "static r/s",
              "steal r/s");
  for (const std::string model : {"squeezenet", "bert"}) {
    const ServerStats st =
        measured_serve(model, ExecutorKind::kStatic, requests, clients);
    const ServerStats sl =
        measured_serve(model, ExecutorKind::kSteal, requests, clients);
    std::printf("%-12s | %9.1f %9.1f |\n", model.c_str(),
                st.throughput_rps(), sl.throughput_rps());
    record("executor_measured", model, "batch 4",
           {{"static_rps", st.throughput_rps()},
            {"steal_rps", sl.throughput_rps()},
            {"static_p99_ms", st.latency.p99_ms},
            {"steal_p99_ms", sl.latency.p99_ms}});
  }

  std::printf("\n%-12s | %9s %9s %7s | sim 12c makespan, batch 4\n", "Model",
              "static ms", "steal ms", "ratio");
  for (const std::string& model : models::model_names()) {
    bench::PreparedModel pm = bench::prepare(model);
    Hyperclustering hc = build_hyperclusters(pm.compiled.graph,
                                             pm.compiled.clustering, 4);
    SimOptions sim;
    const double stat_ms =
        simulate_parallel(pm.compiled.graph, hc, pm.profile, sim).makespan_ms;
    const double steal_ms =
        simulate_steal(pm.compiled.graph, hc, pm.profile, sim).makespan_ms;
    std::printf("%-12s | %9.2f %9.2f %6.2fx |\n", model.c_str(), stat_ms,
                steal_ms, steal_ms > 0 ? stat_ms / steal_ms : 0.0);
    record("executor_sim12c", model, "batch 4",
           {{"static_ms", stat_ms},
            {"steal_ms", steal_ms},
            {"speedup", steal_ms > 0 ? stat_ms / steal_ms : 0.0}});
  }

  // Synthetically skewed placement: 48 independent chains, 47 of them
  // assigned to one cluster. The static runtime serializes the big cluster
  // on one worker; stealing redistributes it.
  constexpr int kChains = 48, kDepth = 6;
  Graph g("skewed_chains");
  ValueId in = g.add_value("x", Shape{1, 4096});
  g.mark_input(in);
  std::vector<NodeId> all;
  for (int c = 0; c < kChains; ++c) {
    ValueId prev = in;
    for (int d = 0; d < kDepth; ++d) {
      NodeId n = g.add_node(OpKind::kSigmoid, str_cat("c", c, "_d", d),
                            {prev});
      all.push_back(n);
      prev = g.node(n).outputs[0];
    }
    g.mark_output(prev);
  }
  infer_shapes(g);
  g.validate();
  Clustering skew;
  skew.clusters.resize(2);
  for (std::size_t i = 0; i < all.size(); ++i) {
    skew.clusters[i < kDepth ? 1 : 0].nodes.push_back(all[i]);
  }
  sort_clusters_topologically(g, skew);
  finalize_clustering(g, skew);
  Hyperclustering hc = build_hyperclusters(g, skew, 1);
  Rng rng(2024);
  CostProfile profile = measure_costs(g, bench::profile_repeats(), rng);
  SimOptions sim;
  const double stat_ms = simulate_parallel(g, hc, profile, sim).makespan_ms;
  const double steal_ms = simulate_steal(g, hc, profile, sim).makespan_ms;
  std::printf("\n%-12s | %9.2f %9.2f %6.2fx | 48 chains pinned 47:1\n",
              "skewed", stat_ms, steal_ms,
              steal_ms > 0 ? stat_ms / steal_ms : 0.0);
  record("executor_sim12c", "skewed_chains", "47:1 skew",
         {{"static_ms", stat_ms},
          {"steal_ms", steal_ms},
          {"speedup", steal_ms > 0 ? stat_ms / steal_ms : 0.0}});
}

/// Cost of the always-on tail profiler: same server, same load, profiling
/// off vs on. The executors read the clock twice per task regardless (busy
/// accounting), so the profiled run adds only per-task event appends plus a
/// critical-path analysis on the rare slowest-batch exemplar insertions —
/// the overhead budget is <= 3% throughput.
void profiler_overhead(int requests, int clients) {
  bench::print_header(
      "Profiler overhead — always-on tail attribution vs profiling off\n"
      "(squeezenet, batch 4, static executor, closed loop)");
  const ServerStats off = measured_serve(
      "squeezenet", ExecutorKind::kStatic, requests, clients, false);
  const ServerStats on = measured_serve(
      "squeezenet", ExecutorKind::kStatic, requests, clients, true);
  const double overhead_pct =
      off.throughput_rps() > 0.0
          ? (1.0 - on.throughput_rps() / off.throughput_rps()) * 100.0
          : 0.0;
  std::printf("%-12s | %9s %9s %9s\n", "Model", "off r/s", "on r/s",
              "overhead");
  std::printf("%-12s | %9.1f %9.1f %+8.2f%%\n", "squeezenet",
              off.throughput_rps(), on.throughput_rps(), overhead_pct);
  // overhead_pct is informational (host-noise-sensitive on a 1-core
  // container); the rps columns participate in the bench_diff gate.
  record("profiler_overhead", "squeezenet", "batch 4",
         {{"off_rps", off.throughput_rps()},
          {"on_rps", on.throughput_rps()},
          {"overhead_pct", overhead_pct}});
}

/// Drives one fleet tenant with open-loop Poisson arrivals for
/// `duration_ms` and returns the loadgen report.
serve::LoadReport drive_tenant(serve::fleet::FleetServer& fleet,
                               const std::string& name, double rate_rps,
                               double duration_ms, int seed) {
  serve::OpenLoopOptions open;
  open.rate_rps = rate_rps;
  open.duration_ms = duration_ms;
  open.seed = seed;
  serve::SubmitFn submit = [&fleet, name](TensorMap inputs) {
    return fleet.submit(name, std::move(inputs));
  };
  const auto entry = fleet.model_entry(name);
  return serve::run_open_loop(submit, entry->compiled.graph, open);
}

serve::fleet::ModelConfig fleet_model(const std::string& name, int batch,
                                      const std::string& slo,
                                      double quota_rps, double weight) {
  serve::fleet::ModelConfig mc;
  mc.name = name;
  mc.batch = batch;
  mc.slo_class = slo;
  mc.quota_rps = quota_rps;
  mc.burst = quota_rps;  // one second of burst: Poisson-tolerant for a
                         // tenant offering under its quota
  mc.weight = weight;
  return mc;
}

/// Two-tenant fleet on the shared pool: interactive squeezenet inside its
/// quota next to a batch-class BERT tenant offered 4x ITS quota. The token
/// bucket clips BERT at the door and the weighted-fair + aging dequeue
/// keeps squeezenet's tail close to its solo baseline — the isolation
/// claims the fleet subsystem makes, measured.
void fleet_mixed(double duration_ms) {
  bench::print_header(
      "Fleet isolation — squeezenet + BERT offered 4x its quota\n"
      "(shared worker pool, open-loop Poisson arrivals, per-tenant quota)");

  const double sq_rate = 36.0;   // within its 40 rps quota
  const double bert_quota = 8.0;
  const double bert_rate = 4.0 * bert_quota;

  // Baseline — squeezenet alone on the fleet, same offered load: its tail
  // without a neighbour.
  double solo_p99 = 0.0;
  {
    serve::fleet::FleetConfig config;
    config.models = {fleet_model("squeezenet", 4, "interactive", 40.0, 2.0)};
    serve::fleet::FleetServer fleet(config);
    drive_tenant(fleet, "squeezenet", sq_rate, duration_ms, 1);
    fleet.shutdown();
    solo_p99 = fleet.tenant_stats("squeezenet").latency.p99_ms;
  }

  // BERT serves at batch 1: on this 1-core container a batch-4 BERT
  // dispatch occupies the pool for hundreds of milliseconds, and dispatches
  // are non-preemptive — smaller units of work are what bounds the
  // interactive tenant's wait behind the batch tenant.
  serve::fleet::FleetConfig config;
  config.models = {fleet_model("squeezenet", 4, "interactive", 40.0, 2.0),
                   fleet_model("bert", 1, "batch", bert_quota, 1.0)};
  serve::fleet::FleetServer fleet(config);
  serve::LoadReport sq_load, bert_load;
  std::thread sq([&] {
    sq_load = drive_tenant(fleet, "squeezenet", sq_rate, duration_ms, 1);
  });
  std::thread bert([&] {
    bert_load = drive_tenant(fleet, "bert", bert_rate, duration_ms, 2);
  });
  sq.join();
  bert.join();
  fleet.shutdown();

  std::printf("%-12s | %9s %8s %8s %8s\n", "Tenant", "offered", "served",
              "rej %", "p99 ms");
  std::vector<double> served;
  for (const std::string name : {"squeezenet", "bert"}) {
    const ServerStats st = fleet.tenant_stats(name);
    const serve::fleet::TenantCounters c = fleet.tenant_counters(name);
    const double offered = static_cast<double>(
        c.admitted + c.rejected_quota + c.rejected_full + c.rejected_closed);
    const double reject_pct =
        offered > 0 ? (offered - static_cast<double>(c.admitted)) /
                          offered * 100.0
                    : 0.0;
    std::printf("%-12s | %9.0f %8llu %7.1f%% %8.2f\n", name.c_str(), offered,
                static_cast<unsigned long long>(st.served), reject_pct,
                st.latency.p99_ms);
    served.push_back(static_cast<double>(st.served));
    // Latency keys deliberately avoid the gated `_ms` suffix: tail
    // percentiles over a few dozen Poisson arrivals on a shared container
    // swing far beyond the 10% regression threshold run to run. The
    // deterministic fleet metrics (stage cuts below) are gated instead.
    record("fleet_mixed", name, "shared pool",
           {{"offered", offered},
            {"served", static_cast<double>(st.served)},
            {"reject_pct", reject_pct},
            {"p99_latency", st.latency.p99_ms}});
  }
  // Fairness over quota-normalized service: squeezenet got 24/40 of its
  // quota offered, bert 8/8 admitted-at-best — compare served/quota.
  const double jain = serve::fleet::jain_fairness(
      {served[0] / 40.0, served[1] / bert_quota});
  const double mixed_p99 = fleet.tenant_stats("squeezenet").latency.p99_ms;
  const double mixed_ratio = solo_p99 > 0 ? mixed_p99 / solo_p99 : 0.0;
  // The mixed ratio additionally pays up to one in-flight BERT dispatch of
  // head-of-line blocking: the shared pool is non-preemptive, so that wait
  // disappears only when pool capacity covers the batch tenant (the
  // 12-core testbed), exactly like the sim 12c columns above.
  std::printf("squeezenet p99: fleet solo %.2f ms, mixed %.2f ms "
              "(%.2fx solo, HOL)\nquota-normalized Jain %.3f\n",
              solo_p99, mixed_p99, mixed_ratio, jain);
  record("fleet_mixed", "squeezenet", "p99 vs solo",
         {{"solo_p99_latency", solo_p99},
          {"mixed_p99_ratio", mixed_ratio},
          {"jain_quota_normalized", jain}});
}

/// Closed-loop req/s of a one-tenant partitioned fleet serving `model` at
/// batch 4 on the static placement, its program cut into `stages` stages
/// (1 = the plain hyperclustered program).
double closed_loop_rps(const std::string& model, int stages, int requests,
                       int clients) {
  serve::fleet::FleetConfig config = serve::fleet::single_tenant_config(model);
  config.models[0].batch = 4;
  config.models[0].executor = ExecutorKind::kStatic;
  config.models[0].pipeline_stages = stages;
  serve::fleet::FleetServer fleet(config, serve::fleet::FleetOptions{});
  serve::LoadOptions load;
  load.clients = clients;
  load.requests = requests;
  return serve_closed_loop(fleet, load).throughput_rps();
}

/// Cross-batch pipelining: stage cuts, their modeled steady-state speedups
/// (sequential cost / bottleneck stage cost, the throughput ratio with one
/// core per stage) and, beside them, measured closed-loop req/s of the
/// pipelined tenant (3 stages, two batches in flight) and of the same model
/// unpipelined, both pinned, on this host.
void fleet_pipeline(int requests, int clients) {
  bench::print_header(
      "Cross-batch pipelining — cost-balanced stage cuts\n"
      "(speedup = total cost / bottleneck stage, modeled; r/s = measured\n"
      " closed loop on this host, batch 4, static placement)");
  std::printf("%-12s | %6s %9s %9s | %9s %9s | stage costs\n", "Model",
              "stages", "bottleneck", "speedup", "piped r/s", "plain r/s");
  for (const std::string& model : models::model_names()) {
    PipelineOptions opts;
    opts.batch = 4;
    opts.generate_code = false;
    CompiledModel cm = compile_model(models::build(model), opts);
    const serve::fleet::StageCut cut =
        serve::fleet::build_stage_cut(cm.graph, cm.clustering, 3);
    std::int64_t bottleneck = 0, total = 0;
    std::string costs;
    for (std::int64_t c : cut.stage_cost) {
      bottleneck = std::max(bottleneck, c);
      total += c;
      if (!costs.empty()) costs += '/';
      costs += std::to_string(c);
    }
    const double piped = closed_loop_rps(model, 3, requests, clients);
    const double plain = closed_loop_rps(model, 1, requests, clients);
    std::printf("%-12s | %6d %9lld %8.2fx | %9.1f %9.1f | %s\n",
                model.c_str(), cut.num_stages(),
                static_cast<long long>(bottleneck), cut.modeled_speedup(),
                piped, plain, costs.c_str());
    // `speedup` is the gated key on purpose: the cut is deterministic (a
    // static cost model), so any change is a real stage-balance regression.
    // The measured keys are not gated (no `_rps` suffix): a closed loop of
    // a few hundred requests varies by more than the gate's 10% between
    // runs on one host.
    record("fleet_pipeline", model, "3 stages",
           {{"stages", static_cast<double>(cut.num_stages())},
            {"bottleneck_cost", static_cast<double>(bottleneck)},
            {"total_cost", static_cast<double>(total)},
            {"speedup", cut.modeled_speedup()},
            {"pipelined_req_s", piped},
            {"unpipelined_req_s", plain}});
  }
}

/// Samples/s of `callers` threads each running batches back to back on
/// `exec` for about `window_ms`.
double samples_per_s(ParallelExecutor& exec,
                     const std::vector<TensorMap>& inputs, int callers,
                     double window_ms) {
  std::atomic<int> runs{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      while (wall.millis() < window_ms) {
        (void)exec.run(inputs);
        runs.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return runs.load() * static_cast<double>(inputs.size()) /
         (wall.millis() / 1e3);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Runs in flight on one executor: samples/s of one batch-4 executor driven
/// by 1 vs 2 concurrent callers (runs in flight), from kPairs alternating
/// pairs of 400 ms windows; the ratio is the median of the per-pair ratios.
void executor_depth() {
  constexpr int kPairs = 10;
  constexpr double kWindowMs = 400.0;
  bench::print_header(
      "Runs in flight — one executor, 1 vs 2 concurrent callers\n"
      "(measured samples/s on this host, batch 4, arena plan; medians of "
      "10 alternating pairs)");
  std::printf("%-12s %-8s | %10s %10s %7s\n", "Model", "placement",
              "depth 1", "depth 2", "ratio");
  for (const std::string model : {"squeezenet", "bert"}) {
    PipelineOptions opts;
    opts.batch = 4;
    opts.generate_code = false;
    CompiledModel cm = compile_model(models::build(model), opts);
    Rng rng(7);
    const auto inputs = make_example_inputs(cm.graph, 4, rng);
    for (const ExecutorKind placement :
         {ExecutorKind::kStatic, ExecutorKind::kSteal}) {
      ParallelExecutor exec(&cm.graph, cm.hyperclusters,
                            cm.mem_plan.empty() ? nullptr : &cm.mem_plan,
                            placement);
      (void)samples_per_s(exec, inputs, 2, 100.0);  // warm both run slots
      std::vector<double> one, two, ratio;
      for (int pair = 0; pair < kPairs; ++pair) {
        // Alternate which depth goes first, so drift cancels.
        double a = 0.0, b = 0.0;
        if (pair % 2 == 0) {
          a = samples_per_s(exec, inputs, 1, kWindowMs);
          b = samples_per_s(exec, inputs, 2, kWindowMs);
        } else {
          b = samples_per_s(exec, inputs, 2, kWindowMs);
          a = samples_per_s(exec, inputs, 1, kWindowMs);
        }
        one.push_back(a);
        two.push_back(b);
        ratio.push_back(a > 0 ? b / a : 0.0);
      }
      const double r = median(ratio);
      std::printf("%-12s %-8s | %10.1f %10.1f %6.2fx%s\n", model.c_str(),
                  to_string(placement), median(one), median(two), r,
                  r >= 1.6 ? "" : "  (< 1.6x)");
      record("executor_depth", model,
             str_cat(to_string(placement), " batch 4"),
             {{"depth1_samples_s", median(one)},
              {"depth2_samples_s", median(two)},
              {"depth2_ratio", r}});
    }
  }
}

/// Short runs: ms per run of one batch-4 executor given 1 sample (a short
/// run: only that sample's tasks) vs its full 4, from kPairs alternating
/// pairs of 200 ms windows; the ratio is the median of the per-pair ratios.
/// The keys are not gated (no `_ms` suffix): measured wall times.
void short_run() {
  constexpr int kPairs = 10;
  constexpr double kWindowMs = 200.0;
  bench::print_header(
      "Short runs — one batch-4 executor, runs of 1 vs 4 samples\n"
      "(measured ms per run on this host, arena plan; medians of 10 "
      "alternating pairs)");
  std::printf("%-12s %-8s | %10s %10s %7s\n", "Model", "placement",
              "1 sample", "4 samples", "ratio");
  for (const std::string model : {"squeezenet", "bert"}) {
    PipelineOptions opts;
    opts.batch = 4;
    opts.generate_code = false;
    CompiledModel cm = compile_model(models::build(model), opts);
    Rng rng(7);
    const auto full = make_example_inputs(cm.graph, 4, rng);
    const std::vector<TensorMap> one = {full[0]};
    for (const ExecutorKind placement :
         {ExecutorKind::kStatic, ExecutorKind::kSteal}) {
      ParallelExecutor exec(&cm.graph, cm.hyperclusters,
                            cm.mem_plan.empty() ? nullptr : &cm.mem_plan,
                            placement);
      const auto ms_per_run = [&](const std::vector<TensorMap>& inputs,
                                  double window_ms) {
        return 1e3 * static_cast<double>(inputs.size()) /
               samples_per_s(exec, inputs, 1, window_ms);
      };
      (void)ms_per_run(full, 50.0);  // warm the run slot
      std::vector<double> ms1, ms4, ratio;
      for (int pair = 0; pair < kPairs; ++pair) {
        // Alternate which size goes first, so drift cancels.
        double a = 0.0, b = 0.0;
        if (pair % 2 == 0) {
          a = ms_per_run(one, kWindowMs);
          b = ms_per_run(full, kWindowMs);
        } else {
          b = ms_per_run(full, kWindowMs);
          a = ms_per_run(one, kWindowMs);
        }
        ms1.push_back(a);
        ms4.push_back(b);
        ratio.push_back(b > 0 ? a / b : 0.0);
      }
      std::printf("%-12s %-8s | %10.3f %10.3f %6.2fx\n", model.c_str(),
                  to_string(placement), median(ms1), median(ms4),
                  median(ratio));
      record("short_run", model, str_cat(to_string(placement), " batch 4"),
             {{"one_sample_ms_per_run", median(ms1)},
              {"four_samples_ms_per_run", median(ms4)},
              {"one_over_four", median(ratio)}});
    }
  }
}

/// Knee and overload: one squeezenet tenant (static, batch 4, no quota)
/// under open-loop Poisson arrivals at 0.8x and 2x the closed-loop capacity
/// measured first in the same process. Near the knee batches leave only as
/// full as the queue is, the place where a fill that never waits could
/// lose to one that does; at overload the bounded queue sheds the excess.
/// served_req_s counts the requests served over the offered window. The
/// keys are not gated (no `_rps`/`_ms` suffix): open-loop tails swing by
/// more than the 10% gate between runs.
void knee_overload(int clients, double duration_ms) {
  bench::print_header(
      "Knee and overload — squeezenet, batch 4, static, open-loop Poisson\n"
      "(measured on this host; offered = factor x closed-loop capacity)");
  serve::fleet::FleetConfig config =
      serve::fleet::single_tenant_config("squeezenet");
  config.models[0].executor = ExecutorKind::kStatic;
  const std::string name = config.models[0].name;
  double capacity = 0.0;
  {
    serve::fleet::FleetServer fleet(config,
                                    serve::fleet::single_tenant_options());
    serve::LoadOptions load;
    load.clients = clients;
    load.requests = 400;
    capacity = serve_closed_loop(fleet, load).throughput_rps();
  }
  std::printf("%-12s %-12s | %9s %9s %8s %8s %6s\n", "Model", "Load",
              "offered", "served/s", "p50 ms", "p99 ms", "fill");
  const std::pair<const char*, double> loads[] = {{"knee 0.8x", 0.8},
                                                  {"overload 2x", 2.0}};
  for (const auto& [label, factor] : loads) {
    serve::fleet::FleetServer fleet(config,
                                    serve::fleet::single_tenant_options());
    drive_tenant(fleet, name, factor * capacity, duration_ms, 3);
    fleet.shutdown();
    const ServerStats st = fleet.tenant_stats(name);
    const double served_req_s =
        static_cast<double>(st.served) / (duration_ms / 1e3);
    std::printf("%-12s %-12s | %9.1f %9.1f %8.2f %8.2f %6.2f\n",
                name.c_str(), label, factor * capacity, served_req_s,
                st.latency.p50_ms, st.latency.p99_ms, st.batch_fill());
    record("knee_overload", name, label,
           {{"capacity_req_s", capacity},
            {"offered_req_s", factor * capacity},
            {"served_req_s", served_req_s},
            {"p50_latency", st.latency.p50_ms},
            {"p99_latency", st.latency.p99_ms},
            {"batch_fill", st.batch_fill()}},
           "measured");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(arg.find('=') + 1);
    } else {
      std::fprintf(stderr, "usage: serve_throughput [--json-out FILE]\n");
      return 2;
    }
  }
  const int requests = env_int("RAMIEL_SERVE_REQUESTS", 96);
  const int clients = env_int("RAMIEL_SERVE_CLIENTS", 8);

  bench::print_header(
      "Serving throughput — dynamic batching x hypermode (closed loop)\n"
      "(measured = real threaded server on this container;\n"
      " sim 12c = same schedule on the modeled 12-core machine)");
  std::printf("%-12s %-14s | %9s %8s %8s %6s | %9s\n", "Model", "Config",
              "meas r/s", "p50 ms", "p99 ms", "fill", "sim12 r/s");

  const std::vector<Config> configs = {
      {1, HyperMode::kPlain, "batch 1"},
      {4, HyperMode::kPlain, "batch 4"},
      {4, HyperMode::kSwitched, "batch 4 sw"},
  };

  for (const std::string model : {"squeezenet", "bert"}) {
    double rps_b1 = 0.0, rps_b4 = 0.0, sim_b1 = 0.0, sim_b4 = 0.0;
    const char* best_b4 = "";
    for (const Config& cfg : configs) {
      serve::fleet::FleetConfig config =
          serve::fleet::single_tenant_config(model);
      config.models[0].batch = cfg.batch;
      config.models[0].hyper = cfg.mode;
      serve::fleet::FleetServer fleet(config,
                                      serve::fleet::single_tenant_options());
      serve::LoadOptions load;
      load.clients = clients;
      load.requests = requests;
      const ServerStats stats = serve_closed_loop(fleet, load);

      const double sim = sim_rps(model, cfg.batch, cfg.mode);
      std::printf("%-12s %-14s | %9.1f %8.2f %8.2f %6.2f | %9.1f\n",
                  model.c_str(), cfg.label, stats.throughput_rps(),
                  stats.latency.p50_ms, stats.latency.p99_ms,
                  stats.batch_fill(), sim);
      record("throughput", model, cfg.label,
             {{"measured_rps", stats.throughput_rps()},
              {"p50_ms", stats.latency.p50_ms},
              {"p99_ms", stats.latency.p99_ms},
              {"batch_fill", stats.batch_fill()},
              {"sim12_rps", sim}});
      if (cfg.batch == 1) {
        rps_b1 = stats.throughput_rps();
        sim_b1 = sim;
      } else if (sim > sim_b4) {  // best batch-4 serving config
        rps_b4 = stats.throughput_rps();
        sim_b4 = sim;
        best_b4 = cfg.label;
      }
    }
    std::printf("%-12s best batch-4 (%s) vs batch-1 throughput: "
                "measured %.2fx, sim 12-core %.2fx\n",
                model.c_str(), best_b4, rps_b1 > 0 ? rps_b4 / rps_b1 : 0.0,
                sim_b1 > 0 ? sim_b4 / sim_b1 : 0.0);

    // Saturation: queue depth 4, no backoff patience — excess offered load
    // must be rejected promptly while every accepted request completes.
    serve::fleet::FleetConfig tight =
        serve::fleet::single_tenant_config(model);
    tight.models[0].queue_depth = 4;
    serve::LoadOptions burst;
    burst.clients = clients * 2;
    burst.requests = requests / 2;
    burst.reject_backoff_us = 500;
    serve::fleet::FleetServer fleet(tight,
                                    serve::fleet::single_tenant_options());
    serve::LoadReport rep;
    const ServerStats sat = serve_closed_loop(fleet, burst, &rep);
    std::printf("%-12s saturation (depth 4, %d clients): served %llu, "
                "rejected %llu, failed %llu — %s\n\n",
                model.c_str(), clients * 2,
                static_cast<unsigned long long>(sat.served),
                static_cast<unsigned long long>(sat.rejected),
                static_cast<unsigned long long>(sat.failed),
                rep.completed == burst.requests && sat.failed == 0
                    ? "server stayed healthy"
                    : "UNEXPECTED");
    record("saturation", model, "depth 4 burst",
           {{"served", static_cast<double>(sat.served)},
            {"rejected", static_cast<double>(sat.rejected)},
            {"failed", static_cast<double>(sat.failed)}});
  }

  executor_comparison(requests, clients);
  profiler_overhead(requests, clients);
  const int fleet_ms = env_int("RAMIEL_FLEET_DURATION_MS", 3000);
  fleet_mixed(fleet_ms);
  knee_overload(clients, fleet_ms);
  fleet_pipeline(requests * 4, clients);
  executor_depth();
  short_run();

  if (!json_out.empty()) {
    write_json(json_out);
    std::printf("wrote %s (%zu rows)\n", json_out.c_str(), g_rows.size());
  }
  return 0;
}

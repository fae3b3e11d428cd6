// serve_fleet: open loop, one generator thread. Seeded Poisson arrivals at a
// fixed per-tenant rate go to one FleetServer (shared pool) hosting two
// squeezenet tenants, each its own program at batch 4 with the default
// flush. Squeezenet compiles to 2 clusters, so the pool's 2 workers plus the
// generator and dispatcher fit on 4 cores (googlenet compiles to 4 clusters,
// which oversubscribes them and made the figures swing by half between
// runs). The rate keeps the pool below saturation and the quotas are above
// it, so nothing is refused. Latency is charged from each request's due time:
// (send - due) + Response::latency_ms. The generator itself checks the
// responses that have arrived whenever it wakes to send, so no collector
// thread competes with it and answered outputs are not kept.
#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "rt/inputs.h"
#include "serve/fleet/fleet_server.h"

namespace perfbench {
namespace {

namespace fleet = ramiel::serve::fleet;

constexpr const char* kTenants[] = {"squeezenet", "squeezenet_b"};
constexpr const char* kModel = "squeezenet";
constexpr int kNumTenants = 2;
// Offered load per tenant, fixed on the commit that introduced the benchmark.
// The pool is about a fifth busy there: at 60 req/s it was half busy, and
// queueing amplified the host's speed swings into p50 spreads of 12-30%
// between runs of identical code.
constexpr double kRatePerTenant = 20.0;
// Goodput latency limit, above that commit's p99.
constexpr double kLimitMs = 50.0;
constexpr int kSamplesPerTenant = 8;
// Grace period for the responses of the last arrivals.
constexpr double kDrainSeconds = 30.0;
// Set-ups timed per run. A fleet set-up takes milliseconds, so the window
// takes more of them than the other workloads for a steadier median.
constexpr int kFleetSetups = 9;

struct Arrival {
  std::int64_t offset_ns = 0;  // due time after the window start
  int tenant = 0;
  int sample = 0;
};

/// Poisson arrivals for every tenant over `seconds`: the count per tenant is
/// fixed at rate x seconds and the times are sorted uniform draws, i.e. a
/// Poisson process conditioned on its count, so the offered load does not
/// vary with the seed. Sample indices are drawn per request.
std::vector<Arrival> schedule(ramiel::Rng& rng, double seconds) {
  std::vector<Arrival> out;
  const int per_tenant = static_cast<int>(kRatePerTenant * seconds + 0.5);
  for (int t = 0; t < kNumTenants; ++t) {
    for (int i = 0; i < per_tenant; ++i) {
      Arrival a;
      a.offset_ns =
          static_cast<std::int64_t>(rng.next_float() * seconds * 1e9);
      a.tenant = t;
      a.sample = static_cast<int>(rng.next_below(kSamplesPerTenant));
      out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.offset_ns < b.offset_ns;
  });
  return out;
}

fleet::FleetConfig fleet_config() {
  fleet::FleetConfig cfg;
  cfg.pool = "shared";
  for (const char* name : kTenants) {
    fleet::ModelConfig m;
    m.name = name;
    m.model = kModel;
    m.batch = 4;
    m.quota_rps = 10.0 * kRatePerTenant;
    m.burst = 10.0 * kRatePerTenant;
    m.queue_depth = 256;
    cfg.models.push_back(m);
  }
  return cfg;
}

/// Seeded request payloads and their f32 sequential-reference outputs.
struct TenantData {
  std::vector<TensorMap> samples;
  std::vector<TensorMap> reference;
};

struct Sent {
  Arrival arrival;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  double submit_us = 0.0;
  std::future<ramiel::serve::Response> response;
};

struct Answered {
  int tenant = 0;
  double latency_ms = 0.0;  // from the due time
  double server_ms = 0.0;   // Response::latency_ms
  double late_ms = 0.0;     // send - due
  double submit_us = 0.0;
};

/// One open-loop window's outcome.
struct Window {
  std::vector<Answered> answered;  // verified responses
  double seconds = 0.0;  // window start to the last answer
  double good = 0.0;     // answered within kLimitMs of their due time
  double offered = 0.0;
};

/// The fleet's cumulative counters summed over tenants; a slice's share is
/// the difference of two snapshots.
struct Totals {
  double batches = 0, slots = 0, samples = 0, exec_ms = 0;
  double busy_ms = 0, slack_ms = 0, bytes = 0, worker_exec_ms = 0;
  double rejected_quota = 0, rejected_full = 0, aged = 0;

  template <class F>
  Totals zip(const Totals& o, F f) const {
    return {f(batches, o.batches),
            f(slots, o.slots),
            f(samples, o.samples),
            f(exec_ms, o.exec_ms),
            f(busy_ms, o.busy_ms),
            f(slack_ms, o.slack_ms),
            f(bytes, o.bytes),
            f(worker_exec_ms, o.worker_exec_ms),
            f(rejected_quota, o.rejected_quota),
            f(rejected_full, o.rejected_full),
            f(aged, o.aged)};
  }
  Totals operator-(const Totals& o) const { return zip(o, std::minus<>()); }
  Totals operator+(const Totals& o) const { return zip(o, std::plus<>()); }
};

Totals totals(fleet::FleetServer& f) {
  Totals t;
  for (const char* name : kTenants) {
    const ramiel::serve::ServerStats s = f.tenant_stats(name);
    const fleet::TenantCounters c = f.tenant_counters(name);
    t.batches += static_cast<double>(s.batches);
    t.slots += static_cast<double>(s.batch_slots);
    t.samples += static_cast<double>(s.batch_samples);
    t.exec_ms += s.exec_wall_ms;
    t.busy_ms += s.worker_busy_ms;
    t.slack_ms += s.worker_slack_ms;
    t.bytes += static_cast<double>(s.bytes_moved);
    t.worker_exec_ms += s.num_workers * s.exec_wall_ms;
    t.rejected_quota += static_cast<double>(c.rejected_quota);
    t.rejected_full += static_cast<double>(c.rejected_full);
    t.aged += static_cast<double>(c.aged);
  }
  return t;
}

}  // namespace

Result run_serve_fleet(const Args& args) {
  Result result;
  Tracer tr(args.trace);
  ramiel::Rng rng(args.seed);

  // Payloads and references are built once; the graph they came from is
  // dropped and the high-water mark reset, so peak_rss_mb is the fleet's.
  TenantData data[kNumTenants];
  {
    const ramiel::Graph model = ramiel::models::build(kModel);
    for (int t = 0; t < kNumTenants; ++t) {
      data[t].samples =
          ramiel::make_example_inputs(model, kSamplesPerTenant, rng);
      data[t].reference =
          ramiel::SequentialExecutor(&model).run(data[t].samples);
    }
  }
  reset_peak_rss();
  auto check = [&](int tenant, int sample, const ramiel::serve::Response& r,
                   std::string* why) {
    if (!r.ok) {
      *why = std::string(kTenants[tenant]) + ": request refused or failed: " +
             r.error;
      return false;
    }
    return outputs_close({data[tenant].reference[static_cast<std::size_t>(
                             sample)]},
                         {r.outputs}, why);
  };

  double build_ms = 0.0;
  auto loader = [&](const std::string& spec) {
    ramiel::Stopwatch sw;
    Scope s(tr, "models.build:" + spec);
    ramiel::Graph g = ramiel::models::build(spec);
    build_ms += sw.millis();
    return g;
  };
  Samples layers;
  // Builds a fleet and waits for one verified response per tenant.
  auto start_fleet = [&](bool trace, std::unique_ptr<fleet::FleetServer>* out,
                         std::string* why) {
    fleet::FleetOptions opts;
    opts.trace = trace;
    build_ms = 0.0;
    {
      Scope s(tr, "fleet.construct");
      *out = std::make_unique<fleet::FleetServer>(fleet_config(), opts, loader);
      std::vector<const ramiel::CompiledModel*> compiled;
      double compile_ms = 0.0;
      for (const char* name : kTenants) {
        const ramiel::CompiledModel& cm =
            (*out)->model_entry(name)->compiled;
        tr.add_passes(cm, s.id());
        compiled.push_back(&cm);
        compile_ms += cm.compile_seconds * 1e3;
      }
      add_compile_layers(compiled, build_ms, compile_ms, &layers);
    }
    Scope s(tr, "fleet.first_response");
    bool ok = true;
    std::future<ramiel::serve::Response> first[kNumTenants];
    for (int t = 0; t < kNumTenants; ++t) {
      first[t] = (*out)->submit(kTenants[t], data[t].samples[0]);
    }
    for (int t = 0; t < kNumTenants; ++t) {
      if (!check(t, 0, first[t].get(), why)) ok = false;
    }
    return ok;
  };

  std::int64_t next_op = 0;
  // One open-loop window of `seconds` against `f`.
  auto phase = [&](fleet::FleetServer& f, double seconds) {
    Window w;
    const std::vector<Arrival> plan = schedule(rng, seconds);
    w.offered = static_cast<double>(plan.size());
    const std::int64_t t0 = ramiel::Stopwatch::now_ns() + 5'000'000;
    std::int64_t last_ns = t0;
    // Checks one arrived response and keeps only its timings.
    auto collect = [&](Sent& s) {
      const std::int64_t op = next_op++;
      const ramiel::serve::Response r = s.response.get();
      std::string why;
      if (!result.tally.record(
              check(s.arrival.tenant, s.arrival.sample, r, &why), why)) {
        return;
      }
      Answered a;
      a.tenant = s.arrival.tenant;
      a.server_ms = r.latency_ms;
      a.late_ms = static_cast<double>(s.send_ns - s.due_ns) / 1e6;
      a.latency_ms = due_latency_ms(s.due_ns, s.send_ns, r.latency_ms);
      a.submit_us = s.submit_us;
      if (a.latency_ms <= kLimitMs) w.good += 1.0;
      const std::int64_t done_ns =
          s.send_ns + static_cast<std::int64_t>(r.latency_ms * 1e6);
      last_ns = std::max(last_ns, done_ns);
      if (tr.enabled()) {
        const int req = tr.add("loadgen.request", s.due_ns, done_ns, -1, op);
        tr.add("loadgen.late", s.due_ns, s.send_ns, req, op);
        tr.add("fleet.submit", s.send_ns,
               s.send_ns + static_cast<std::int64_t>(s.submit_us * 1e3), req,
               op);
        tr.add("fleet.server", s.send_ns, done_ns, req, op);
      }
      w.answered.push_back(a);
    };
    std::deque<Sent> pending;  // in send order
    for (const Arrival& a : plan) {
      Sent s;
      s.arrival = a;
      s.due_ns = t0 + a.offset_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(s.due_ns)));
      s.send_ns = ramiel::Stopwatch::now_ns();
      s.response = f.submit(kTenants[a.tenant],
                            data[a.tenant].samples[static_cast<std::size_t>(
                                a.sample)]);
      s.submit_us =
          static_cast<double>(ramiel::Stopwatch::now_ns() - s.send_ns) / 1e3;
      pending.push_back(std::move(s));
      while (!pending.empty() &&
             pending.front().response.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        collect(pending.front());
        pending.pop_front();
      }
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(kDrainSeconds);
    for (Sent& s : pending) {
      if (s.response.wait_until(deadline) == std::future_status::ready) {
        collect(s);
      } else {
        ++next_op;
        result.tally.fail(std::string(kTenants[s.arrival.tenant]) +
                          ": no response within the drain period");
      }
    }
    w.seconds = static_cast<double>(last_ns - t0) / 1e9;
    return w;
  };
  auto latencies = [](const std::vector<Answered>& v, int tenant) {
    std::vector<double> out;
    for (const Answered& a : v) {
      if (tenant < 0 || a.tenant == tenant) out.push_back(a.latency_ms);
    }
    return out;
  };

  // A first fleet serves the warm-up. The window's slices then each start
  // on a freshly set-up fleet; in a traced run every second one records
  // batch spans and the request spans around it, and the others are the
  // untraced baseline for trace.overhead_pct.
  std::unique_ptr<fleet::FleetServer> server;
  std::string setup_error;
  tr.set_enabled(false);
  if (!start_fleet(false, &server, &setup_error)) {
    result.tally.fail("set-up: " + setup_error);
  }
  phase(*server, kWarmupSeconds);

  std::vector<double> plain_ms;  // untraced slices of a traced run
  std::vector<Answered> answered;
  double window_s = 0.0, offered = 0.0, good = 0.0;
  Totals traced_totals;
  std::string fleet_trace = "null";
  int slice_count = 0;
  bool setup_ok = true;
  const std::vector<double> setups = sliced_window(
      kFleetSetups,
      [&] {
        const bool traced = args.trace && slice_count++ % 2 == 1;
        tr.set_enabled(args.trace);
        Scope s(tr, "setup");
        return start_fleet(traced, &server, &setup_error);
      },
      [&] { server.reset(); },
      [&](int slice) {
        const bool traced = args.trace && slice % 2 == 1;
        tr.set_enabled(traced);
        const Totals before = totals(*server);
        const Window w = phase(*server, args.seconds / kFleetSetups);
        if (args.trace && !traced) {
          const std::vector<double> lat = latencies(w.answered, -1);
          plain_ms.insert(plain_ms.end(), lat.begin(), lat.end());
          return;
        }
        answered.insert(answered.end(), w.answered.begin(), w.answered.end());
        window_s += w.seconds;
        offered += w.offered;
        good += w.good;
        if (traced) {
          traced_totals = traced_totals + (totals(*server) - before);
          ramiel::obs::Timeline timeline;
          server->append_trace(timeline);
          fleet_trace = timeline.to_chrome_json();
        }
      },
      &setup_ok);
  if (!setup_ok) result.tally.fail("set-up: " + setup_error);
  server.reset();

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setups_s = setups;
    e2e.latencies_ms = latencies(answered, -1);
    e2e.window_s = window_s;
    e2e.good_units = good;
    e2e.verified_units = static_cast<double>(answered.size());
    put_end_to_end(e2e, &result);
    return result;
  }

  layers.put(&result);
  std::vector<double> late, server_ms, submit_us;
  for (const Answered& a : answered) {
    late.push_back(a.late_ms);
    server_ms.push_back(a.server_ms);
    submit_us.push_back(a.submit_us);
  }
  result.put("loadgen.offered", offered);
  result.put("loadgen.late_p99_ms", percentile(late, 0.99));
  result.put("fleet.submit_us_p50", median(submit_us));
  result.put("fleet.server_p50_ms", median(server_ms));
  std::vector<double> served_share;
  for (int t = 0; t < kNumTenants; ++t) {
    const std::vector<double> lat = latencies(answered, t);
    const std::string name = kTenants[t];
    result.put("fleet." + name + "_p50_ms", percentile(lat, 0.5));
    result.put("fleet." + name + "_p90_ms", percentile(lat, 0.9));
    served_share.push_back(static_cast<double>(lat.size()) /
                           (offered / kNumTenants));
  }
  result.put("fleet.jain", fleet::jain_fairness(served_share));
  const Totals& t = traced_totals;
  result.put("fleet.rejected_quota", t.rejected_quota);
  result.put("fleet.rejected_full", t.rejected_full);
  result.put("fleet.aged", t.aged);
  const double exec_per_batch = t.batches > 0 ? t.exec_ms / t.batches : 0.0;
  // The shared pool's static runtime, per executed batch.
  const double per_batch = t.batches > 0 ? 1.0 / t.batches : 0.0;
  result.put("rt.busy_ms", t.busy_ms * per_batch);
  result.put("rt.recv_wait_ms", t.slack_ms * per_batch);
  result.put("rt.bytes_sent_kb", t.bytes * per_batch / 1024.0);
  result.put("rt.utilization",
             t.worker_exec_ms > 0 ? t.busy_ms / t.worker_exec_ms : 0.0);
  result.put("serve.batch_fill", t.slots > 0 ? t.samples / t.slots : 0.0);
  result.put("serve.exec_ms_per_batch", exec_per_batch);
  result.put("serve.batches_per_s", window_s > 0 ? t.batches / window_s : 0.0);
  result.put("serve.pool_busy_ratio",
             window_s > 0 ? t.exec_ms / (window_s * 1e3) : 0.0);
  result.put("serve.wait_ms", mean(server_ms) - exec_per_batch);
  result.put("latency.p90_ms", percentile(plain_ms, 0.90));
  result.put("trace.overhead_pct",
             overhead_pct(plain_ms, latencies(answered, -1)));
  tr.write(std::string(kTraceDir) + "/serve_fleet-" +
               std::to_string(args.seed) + ".json",
           args, {{"fleet_trace", fleet_trace}});
  return result;
}

}  // namespace perfbench

#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace ramiel {

double SimResult::total_slack_ms() const {
  double total = 0.0;
  for (const SimWorkerStats& w : workers) total += w.slack_us;
  return total / 1e3;
}

double SimResult::energy_mj(const MachineModel& machine) const {
  double mj = 0.0;
  for (const SimWorkerStats& w : workers) {
    const double busy_s = w.busy_us / 1e6;
    const double idle_s = std::max(0.0, makespan_ms / 1e3 - busy_s);
    mj += (busy_s * machine.active_power_w + idle_s * machine.idle_power_w) *
          1e3;
  }
  return mj;
}

double sequential_energy_mj(double seq_ms, const MachineModel& machine) {
  return seq_ms / 1e3 * machine.active_power_w * 1e3;
}

namespace {

/// Modeled duration of one task of `n`: dispatch overhead plus its kernel
/// under intra-op threading. Constant nodes cost nothing.
double task_us(const Node& n, const CostProfile& profile,
               const MachineModel& machine, int threads, int active_workers) {
  if (n.kind == OpKind::kConstant) return 0.0;
  return machine.per_task_overhead_us +
         machine.kernel_us(profile.node_us[static_cast<std::size_t>(n.id)],
                           threads, active_workers,
                           kernel_is_parallelizable(n.kind));
}

/// The simulator's task list: one task per hypercluster task, in
/// hyperclustering order (worker-major, the order of the runtime's task
/// graph), homed on its hypercluster worker. Under the pinned placement
/// every output value is a message to each distinct remote worker that
/// consumes it. Durations are filled by the caller.
std::vector<sim::Task> build_tasks(const Graph& graph,
                                   const Hyperclustering& hc,
                                   const CostProfile& profile,
                                   const MachineModel& machine, bool pinned) {
  std::vector<sim::Task> tasks;
  for (std::size_t w = 0; w < hc.workers.size(); ++w) {
    for (const HyperTask& ht : hc.workers[w]) {
      sim::Task& t = tasks.emplace_back();
      t.node = ht.node;
      t.sample = ht.sample;
      t.home = static_cast<int>(w);
    }
  }
  auto comm = [&](ValueId v) {
    return machine.comm_us(profile.value_bytes[static_cast<std::size_t>(v)]);
  };
  RAMIEL_CHECK(sim::link_data_preds(graph, tasks, comm) == 0,
               "producer node missing from hyperclustering");
  if (!pinned) return tasks;
  for (sim::Task& t : tasks) {
    for (ValueId ov : graph.node(t.node).outputs) {
      std::vector<int> to;  // distinct remote workers consuming ov
      for (NodeId c : graph.value(ov).consumers) {
        const int wc = graph.node(c).dead ? -1 : hc.worker(c, t.sample);
        if (wc < 0 || wc == t.home) continue;
        if (std::find(to.begin(), to.end(), wc) == to.end()) to.push_back(wc);
      }
      for (int wc : to) t.sends.push_back(sim::Edge{wc, comm(ov)});
    }
  }
  return tasks;
}

SimResult simulate(const Graph& graph, const Hyperclustering& hc,
                   const CostProfile& profile, const SimOptions& options,
                   sim::Policy policy) {
  const int k = static_cast<int>(hc.workers.size());
  const MachineModel& machine = options.machine;
  std::vector<sim::Task> tasks = build_tasks(
      graph, hc, profile, machine, policy == sim::Policy::kPinned);
  auto fill_durations = [&](int threads, int active_workers) {
    for (sim::Task& t : tasks) {
      t.dur = task_us(graph.node(t.node), profile, machine, threads,
                      active_workers);
    }
  };

  // Intra-op threading shares the cores with however many workers are
  // *simultaneously* busy, which for phased graphs is far fewer than the
  // worker count (a ResNet backbone runs nearly alone before its heads fan
  // out). Estimate average concurrency with a serial-kernel pre-pass and
  // use it as the contention width.
  int active_workers = k;
  if (options.intra_op_threads > 1) {
    fill_durations(1, k);
    const sim::Schedule serial = sim::schedule(tasks, k, policy);
    double busy_us = 0.0;
    for (const SimWorkerStats& w : serial.workers) busy_us += w.busy_us;
    const double makespan_ms = serial.makespan / 1e3;
    if (makespan_ms > 0.0) {
      active_workers = std::max(
          1, std::min(k, static_cast<int>(
                             std::lround(busy_us / 1e3 / makespan_ms))));
    }
  }
  fill_durations(options.intra_op_threads, active_workers);
  sim::Schedule run = sim::schedule(tasks, k, policy);

  SimResult result;
  result.makespan_ms = run.makespan / 1e3;
  result.workers = std::move(run.workers);
  if (options.trace) {
    result.events.reserve(run.order.size());
    for (const sim::Placed& p : run.order) {
      const sim::Task& t = tasks[static_cast<std::size_t>(p.task)];
      result.events.push_back(
          TaskEvent{t.node, t.sample, p.worker,
                    static_cast<std::int64_t>(p.start * 1e3),
                    static_cast<std::int64_t>(p.end * 1e3)});
    }
  }
  return result;
}

}  // namespace

double simulate_sequential_ms(const Graph& graph, const CostProfile& profile,
                              int batch, const SimOptions& options) {
  RAMIEL_CHECK(batch >= 1, "batch must be >= 1");
  double us = 0.0;
  for (const Node& n : graph.nodes()) {
    if (!n.dead) {
      us += task_us(n, profile, options.machine, options.intra_op_threads,
                    /*active_workers=*/1);
    }
  }
  return us * static_cast<double>(batch) / 1e3;
}

SimResult simulate_parallel(const Graph& graph, const Hyperclustering& hc,
                            const CostProfile& profile,
                            const SimOptions& options) {
  return simulate(graph, hc, profile, options, sim::Policy::kPinned);
}

SimResult simulate_steal(const Graph& graph, const Hyperclustering& hc,
                         const CostProfile& profile,
                         const SimOptions& options) {
  return simulate(graph, hc, profile, options, sim::Policy::kGreedy);
}

}  // namespace ramiel

#include "sim/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "support/check.h"
#include "support/string_util.h"

namespace ramiel::sim {
namespace {

constexpr double kUnset = -1.0;

using Event = std::pair<double, int>;  // (time, worker)
using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

/// What both policies track: where and until when each task ran, and the
/// per-worker tallies.
struct Run {
  const std::vector<Task>& tasks;
  Schedule out;
  std::vector<double> end;  // kUnset until placed
  std::vector<int> ran_on;

  Run(const std::vector<Task>& t, int k)
      : tasks(t), end(t.size(), kUnset), ran_on(t.size(), -1) {
    out.workers.assign(static_cast<std::size_t>(k), SimWorkerStats{});
  }

  /// Earliest time every input of task t is on worker w (comm added for a
  /// predecessor that ran elsewhere), kUnset while one has not run.
  /// `local` tells whether every predecessor ran on w.
  double inputs_at(std::int32_t t, int w, bool* local) const {
    double ready = 0.0;
    *local = true;
    for (const Edge& p : tasks[static_cast<std::size_t>(t)].preds) {
      const auto pu = static_cast<std::size_t>(p.to);
      if (end[pu] == kUnset) return kUnset;
      const bool here = ran_on[pu] == w;
      *local = *local && here;
      ready = std::max(ready, here ? end[pu] : end[pu] + p.comm);
    }
    return ready;
  }

  /// Runs task t on worker w from `start`; returns its end.
  double place(std::int32_t t, int w, double start) {
    const auto tu = static_cast<std::size_t>(t);
    SimWorkerStats& stats = out.workers[static_cast<std::size_t>(w)];
    stats.busy_us += tasks[tu].dur;
    ++stats.tasks;
    end[tu] = start + tasks[tu].dur;
    ran_on[tu] = w;
    out.order.push_back(Placed{t, w, start, end[tu]});
    out.makespan = std::max(out.makespan, end[tu]);
    return end[tu];
  }
};

Schedule run_pinned(const std::vector<Task>& tasks, int k) {
  int batch = 1;
  for (const Task& t : tasks) batch = std::max(batch, t.sample + 1);
  struct Worker {
    std::vector<std::vector<std::int32_t>> streams;  // per-sample task ids
    std::vector<std::size_t> cursor;
    double clock = 0.0;
    int prefer = 0;
    std::size_t remaining = 0;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(k));
  for (Worker& ws : workers) {
    ws.streams.resize(static_cast<std::size_t>(batch));
    ws.cursor.assign(static_cast<std::size_t>(batch), 0);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Worker& ws = workers[static_cast<std::size_t>(tasks[i].home)];
    ws.streams[static_cast<std::size_t>(tasks[i].sample)].push_back(
        static_cast<std::int32_t>(i));
    ++ws.remaining;
  }
  Run run(tasks, k);
  std::size_t pending = tasks.size();

  // Head task of stream s on worker w and its ready time (kUnset when the
  // stream is done or an input is still unproduced).
  auto head = [&](const Worker& ws, int s, int w, std::int32_t* id) {
    auto su = static_cast<std::size_t>(s);
    if (ws.cursor[su] >= ws.streams[su].size()) return kUnset;
    *id = ws.streams[su][ws.cursor[su]];
    bool local = false;
    return run.inputs_at(*id, w, &local);
  };

  EventQueue heap;
  for (int w = 0; w < k; ++w) heap.emplace(0.0, w);
  while (!heap.empty()) {
    const auto [t, w] = heap.top();
    heap.pop();
    Worker& ws = workers[static_cast<std::size_t>(w)];
    if (ws.remaining == 0) continue;
    if (t > ws.clock) {
      run.out.workers[static_cast<std::size_t>(w)].slack_us += t - ws.clock;
      ws.clock = t;
    }

    // Run every task runnable at the advancing clock, rotating the sample
    // preference after each one.
    bool progressed = true;
    while (progressed && ws.remaining > 0) {
      progressed = false;
      for (int off = 0; off < batch && !progressed; ++off) {
        const int s = (ws.prefer + off) % batch;
        std::int32_t id = 0;
        const double ready = head(ws, s, w, &id);
        if (ready == kUnset || ready > ws.clock) continue;
        ws.clock = run.place(id, w, ws.clock);
        for (const Edge& m : tasks[static_cast<std::size_t>(id)].sends) {
          ++run.out.workers[static_cast<std::size_t>(w)].messages_sent;
          heap.emplace(ws.clock + m.comm, m.to);
        }
        ++ws.cursor[static_cast<std::size_t>(s)];
        --ws.remaining;
        --pending;
        ws.prefer = (s + 1) % batch;
        progressed = true;
      }
    }
    if (ws.remaining == 0) continue;

    // Nothing runnable now: if some head has a known future ready time,
    // self-schedule a wake-up; otherwise wait for a message.
    double wake = std::numeric_limits<double>::infinity();
    for (int s = 0; s < batch; ++s) {
      std::int32_t id = 0;
      const double ready = head(ws, s, w, &id);
      if (ready != kUnset && ready > ws.clock) wake = std::min(wake, ready);
    }
    if (std::isfinite(wake)) heap.emplace(wake, w);
  }
  if (pending != 0) {
    throw Error(str_cat("simulation stalled with ", pending,
                        " tasks pending (invalid clustering?)"));
  }
  return std::move(run.out);
}

Schedule run_greedy(const std::vector<Task>& tasks, int k) {
  const std::size_t n = tasks.size();
  // Successor lists in ascending task order, so release order is the
  // runtime's (rt/steal/task_graph.h builds its CSR lists the same way).
  std::vector<std::vector<std::int32_t>> succs(n);
  std::vector<std::size_t> deps(n);
  std::vector<std::int32_t> ready;
  for (std::size_t t = 0; t < n; ++t) {
    deps[t] = tasks[t].preds.size();
    if (deps[t] == 0) ready.push_back(static_cast<std::int32_t>(t));
    for (const Edge& p : tasks[t].preds) {
      succs[static_cast<std::size_t>(p.to)].push_back(
          static_cast<std::int32_t>(t));
    }
  }
  Run run(tasks, k);
  std::vector<double> clock(static_cast<std::size_t>(k), 0.0);
  EventQueue idle;  // (free time, worker)
  for (int w = 0; w < k; ++w) idle.emplace(0.0, w);

  // Work-conserving: a task's end is fixed when it is placed, so the ready
  // list can only be empty when every unplaced task still has unplaced
  // predecessors, which a DAG cannot sustain.
  for (std::size_t placed = 0; placed < n; ++placed) {
    RAMIEL_CHECK(!ready.empty(), "schedule stalled (cyclic task list?)");
    const auto [free_at, w] = idle.top();
    idle.pop();
    std::size_t best = 0;
    bool best_local = false;
    double best_start = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      bool local = false;
      const double s = std::max(free_at, run.inputs_at(ready[i], w, &local));
      if (i == 0 || s < best_start ||
          (s == best_start && local && !best_local)) {
        best = i;
        best_start = s;
        best_local = local;
      }
    }
    const std::int32_t t = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    double& wclock = clock[static_cast<std::size_t>(w)];
    if (best_start > wclock) {
      run.out.workers[static_cast<std::size_t>(w)].slack_us +=
          best_start - wclock;
    }
    wclock = run.place(t, w, best_start);
    idle.emplace(wclock, w);
    for (std::int32_t s : succs[static_cast<std::size_t>(t)]) {
      if (--deps[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  return std::move(run.out);
}

}  // namespace

int link_data_preds(const Graph& graph, std::vector<Task>& tasks,
                    const std::function<double(ValueId)>& comm) {
  const std::size_t nodes = graph.nodes().size();
  int batch = 1;
  for (const Task& t : tasks) {
    RAMIEL_CHECK(t.node >= 0 && static_cast<std::size_t>(t.node) < nodes &&
                     t.sample >= 0,
                 "task (node, sample) out of range");
    batch = std::max(batch, t.sample + 1);
  }
  std::vector<std::int32_t> task_of(nodes * static_cast<std::size_t>(batch),
                                    -1);
  auto slot = [&](NodeId n, int s) {
    return static_cast<std::size_t>(s) * nodes + static_cast<std::size_t>(n);
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    task_of[slot(tasks[i].node, tasks[i].sample)] =
        static_cast<std::int32_t>(i);
  }

  int missing = 0;
  for (Task& t : tasks) {
    for (ValueId v : graph.node(t.node).inputs) {
      const Value& val = graph.value(v);
      // Constant values are available from time zero: no edge, no comm.
      if (val.is_constant()) continue;
      if (val.producer == kNoNode || graph.node(val.producer).dead) continue;
      const std::int32_t p = task_of[slot(val.producer, t.sample)];
      if (p < 0) {
        ++missing;
        continue;
      }
      const double c = comm(v);
      auto it = std::find_if(t.preds.begin(), t.preds.end(),
                             [&](const Edge& e) { return e.to == p; });
      if (it == t.preds.end()) {
        t.preds.push_back(Edge{p, c});
      } else {
        it->comm = std::max(it->comm, c);
      }
    }
  }
  return missing;
}

Schedule schedule(const std::vector<Task>& tasks, int workers,
                  Policy policy) {
  RAMIEL_CHECK(workers >= 1, "need at least one worker");
  return policy == Policy::kPinned ? run_pinned(tasks, workers)
                                   : run_greedy(tasks, workers);
}

}  // namespace ramiel::sim

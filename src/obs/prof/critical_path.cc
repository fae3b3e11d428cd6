#include "obs/prof/critical_path.h"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/op_kind.h"
#include "obs/metrics.h"
#include "obs/prof/whatif.h"

namespace ramiel::prof {
namespace {

/// Cluster of a task under the static placement; -1 when `hc` is absent or
/// does not cover the task (e.g. a sequential-executor profile).
int cluster_of(const Hyperclustering& hc, NodeId node, int sample) {
  if (hc.num_nodes <= 0 || node < 0 || node >= hc.num_nodes ||
      sample < 0 || sample >= hc.batch) {
    return -1;
  }
  return hc.worker(node, sample);
}

}  // namespace

const char* segment_name(Segment kind) {
  switch (kind) {
    case Segment::kCompute: return "compute";
    case Segment::kComm: return "comm";
    case Segment::kQueue: return "queue";
    case Segment::kIdle: return "idle";
  }
  return "?";
}

std::vector<std::pair<NodeId, int>> CriticalPathReport::critical_tasks()
    const {
  std::vector<std::pair<NodeId, int>> tasks;
  for (const PathStep& s : path) {
    if (s.kind == Segment::kCompute) tasks.emplace_back(s.node, s.sample);
  }
  return tasks;
}

CriticalPathReport analyze(const Graph& graph, const Hyperclustering& hc,
                           const Profile& profile,
                           const AnalyzeOptions& options) {
  CriticalPathReport report;
  report.workers = static_cast<int>(profile.workers.size());
  report.tasks = static_cast<int>(profile.events.size());
  if (profile.events.empty()) {
    report.wall_ms = profile.wall_ms;
    report.idle_ms = profile.wall_ms;
    return report;
  }
  report.valid = true;

  // Profiled window. The executors stamp start/end around the whole run;
  // fall back to event extents for hand-built profiles, and widen so every
  // event lies inside (the decomposition tiles exactly this interval).
  std::int64_t window_begin = profile.start_ns;
  std::int64_t window_end = profile.end_ns;
  if (window_begin == 0 && window_end == 0) {
    window_begin = profile.events.front().start_ns;
    window_end = profile.events.front().end_ns;
  }
  std::size_t last = 0;
  for (std::size_t i = 0; i < profile.events.size(); ++i) {
    const TaskEvent& e = profile.events[i];
    window_begin = std::min(window_begin, e.start_ns);
    window_end = std::max(window_end, e.end_ns);
    if (e.end_ns > profile.events[last].end_ns) last = i;
  }
  report.wall_ms = static_cast<double>(window_end - window_begin) / 1e6;

  // The recorded DAG, built once: the walk reads its data edges, the
  // what-if battery replays it.
  ReplayComm comm;
  if (options.comm_ns_per_byte >= 0 || options.comm_fixed_ns >= 0) {
    comm.ns_per_byte = std::max(0.0, options.comm_ns_per_byte);
    comm.fixed_ns = std::max(0.0, options.comm_fixed_ns);
  } else {
    comm = estimate_comm(profile);
  }
  const RecordedDag dag = build_recorded_dag(graph, profile, comm);

  // The walk runs over the DAG's tasks. Worker lanes are serial: order the
  // tasks by (worker, start, event index) and each one's lane predecessor
  // is the task before it.
  const std::size_t n = dag.tasks.size();
  auto ev = [&](std::int32_t t) -> const TaskEvent& {
    return profile.events[static_cast<std::size_t>(
        dag.event[static_cast<std::size_t>(t)])];
  };
  std::vector<std::int32_t> lanes(n);
  std::iota(lanes.begin(), lanes.end(), 0);
  std::sort(lanes.begin(), lanes.end(), [&](std::int32_t a, std::int32_t b) {
    return std::tie(ev(a).worker, ev(a).start_ns,
                    dag.event[static_cast<std::size_t>(a)]) <
           std::tie(ev(b).worker, ev(b).start_ns,
                    dag.event[static_cast<std::size_t>(b)]);
  });
  std::vector<std::int32_t> lane_pred(n, -1);
  for (std::size_t k = 1; k < n; ++k) {
    if (ev(lanes[k]).worker == ev(lanes[k - 1]).worker) {
      lane_pred[static_cast<std::size_t>(lanes[k])] = lanes[k - 1];
    }
  }
  // Latest-finishing data predecessor of task t, or -1. A recorded
  // "producer" that finished after t started cannot have bound its start —
  // the simulator schedules free-standing zero-cost tasks lazily, so such
  // inversions do occur — and is skipped.
  auto data_pred = [&](std::int32_t t) {
    std::int32_t best = -1;
    for (const sim::Edge& p : dag.tasks[static_cast<std::size_t>(t)].preds) {
      if (ev(p.to).end_ns > ev(t).start_ns) continue;
      if (best < 0 || ev(p.to).end_ns > ev(best).end_ns) best = p.to;
    }
    return best;
  };

  // Backward walk from the last-finishing task. Each iteration emits the
  // current task's compute slice and then the gap back to whichever
  // constraint bound its start: the latest data predecessor (comm when it
  // ran on another worker, queue when same-worker) or the previous task on
  // the same worker lane (queue). Segments are emitted back-to-back, so
  // they tile [window_begin, window_end] exactly.
  std::vector<PathStep> steps;
  std::vector<char> visited(n, 0);
  std::int64_t cur = window_end;
  std::int32_t t = static_cast<std::int32_t>(
      std::find(dag.event.begin(), dag.event.end(), last) - dag.event.begin());
  visited[static_cast<std::size_t>(t)] = 1;
  if (ev(t).end_ns < cur) {
    steps.push_back({Segment::kIdle, kNoNode, 0, -1, ev(t).end_ns, cur});
    cur = ev(t).end_ns;
  }
  for (;;) {
    const TaskEvent& e = ev(t);
    const std::int64_t begin = std::min(e.start_ns, cur);
    if (begin < cur) {
      steps.push_back(
          {Segment::kCompute, e.node, e.sample, e.worker, begin, cur});
      cur = begin;
    }
    // A pred already on the path would close a cycle — only possible for
    // inconsistent hand-built profiles, but the walk must terminate on any
    // input, so such candidates are treated as absent.
    std::int32_t dp = data_pred(t);
    std::int32_t wp = lane_pred[static_cast<std::size_t>(t)];
    if (dp >= 0 && visited[static_cast<std::size_t>(dp)]) dp = -1;
    if (wp >= 0 && visited[static_cast<std::size_t>(wp)]) wp = -1;
    if (dp < 0 && wp < 0) {
      if (window_begin < cur) {
        steps.push_back(
            {Segment::kIdle, e.node, e.sample, e.worker, window_begin, cur});
        cur = window_begin;
      }
      break;
    }
    // The later-finishing of the two bound the start; a tie goes to data.
    const bool data = dp >= 0 && (wp < 0 || ev(dp).end_ns >= ev(wp).end_ns);
    const std::int32_t pred = data ? dp : wp;
    const Segment kind =
        data && ev(dp).worker != e.worker ? Segment::kComm : Segment::kQueue;
    const std::int64_t gap_begin =
        std::min(std::max(ev(pred).end_ns, window_begin), cur);
    if (gap_begin < cur) {
      steps.push_back({kind, e.node, e.sample, e.worker, gap_begin, cur});
      cur = gap_begin;
    }
    t = pred;
    visited[static_cast<std::size_t>(t)] = 1;
  }
  std::reverse(steps.begin(), steps.end());

  // -- aggregate --------------------------------------------------------

  std::map<NodeId, OpAttribution> ops;
  double total_kernel_ms = 0.0;
  for (const TaskEvent& e : profile.events) {
    OpAttribution& a = ops[e.node];
    if (a.tasks == 0) {
      const Node& n = graph.node(e.node);
      a.node = e.node;
      a.name = n.name;
      a.op = op_kind_name(n.kind);
      a.cluster = cluster_of(hc, e.node, e.sample);
    }
    ++a.tasks;
    a.self_ms += static_cast<double>(e.end_ns - e.start_ns) / 1e6;
    total_kernel_ms += static_cast<double>(e.end_ns - e.start_ns) / 1e6;
  }

  std::map<int, ClusterAttribution> clusters;
  std::map<int, WorkerAttribution> workers;
  const std::array<double*, 4> totals{&report.compute_ms, &report.comm_ms,
                                      &report.queue_ms, &report.idle_ms};
  for (const PathStep& s : steps) {
    const double ms = s.ms();
    const auto kind = static_cast<std::size_t>(s.kind);
    *totals[kind] += ms;
    if (s.node == kNoNode || s.kind == Segment::kIdle) continue;
    OpAttribution& a = ops[s.node];
    a.critpath_ms += ms;
    if (s.kind == Segment::kCompute) {
      ++a.path_tasks;
      ++report.path_tasks;
    }
    const int c = cluster_of(hc, s.node, s.sample);
    ClusterAttribution& ca = clusters[c];
    ca.cluster = c;
    const std::array<double*, 3> split{&ca.compute_ms, &ca.comm_ms,
                                       &ca.queue_ms};
    *split[kind] += ms;
    if (s.worker >= 0) {
      WorkerAttribution& wa = workers[s.worker];
      wa.worker = s.worker;
      wa.path_ms += ms;
    }
  }

  for (auto& [node, a] : ops) {
    if (total_kernel_ms > 0) a.self_share = a.self_ms / total_kernel_ms;
    if (report.wall_ms > 0) a.critpath_share = a.critpath_ms / report.wall_ms;
  }
  for (auto& [c, ca] : clusters) {
    if (report.wall_ms > 0) {
      ca.critpath_share =
          (ca.compute_ms + ca.comm_ms + ca.queue_ms) / report.wall_ms;
    }
    report.clusters.push_back(ca);
  }
  for (std::size_t w = 0; w < profile.workers.size(); ++w) {
    WorkerAttribution& wa = workers[static_cast<int>(w)];
    wa.worker = static_cast<int>(w);
    wa.tasks = profile.workers[w].tasks;
    wa.busy_ms = static_cast<double>(profile.workers[w].busy_ns) / 1e6;
    wa.idle_ms = std::max(0.0, report.wall_ms - wa.busy_ms);
  }
  for (auto& [w, wa] : workers) report.worker_stats.push_back(wa);

  report.ops.reserve(ops.size());
  for (auto& [node, a] : ops) report.ops.push_back(std::move(a));
  std::sort(report.ops.begin(), report.ops.end(),
            [](const OpAttribution& x, const OpAttribution& y) {
              if (x.critpath_ms != y.critpath_ms) {
                return x.critpath_ms > y.critpath_ms;
              }
              if (x.self_ms != y.self_ms) return x.self_ms > y.self_ms;
              return x.node < y.node;
            });
  if (options.top_ops > 0 &&
      report.ops.size() > static_cast<std::size_t>(options.top_ops)) {
    report.ops.resize(static_cast<std::size_t>(options.top_ops));
  }

  // -- what-if ----------------------------------------------------------

  if (options.what_if) {
    const int k = dag.workers;
    report.replay_ms = replay_ms(dag, k);
    auto add = [&](const std::string& scenario, double predicted) {
      WhatIf w;
      w.scenario = scenario;
      w.baseline_ms = report.replay_ms;
      w.predicted_ms = predicted;
      w.speedup = predicted > 0 ? report.replay_ms / predicted : 0.0;
      report.what_ifs.push_back(std::move(w));
    };
    int listed = 0;
    for (const OpAttribution& a : report.ops) {
      if (listed >= options.what_if_ops) break;
      if (a.critpath_ms <= 0) break;
      add("2x " + a.name,
          replay_node_speedup_ms(dag, k, a.node, 2.0));
      ++listed;
    }
    add("workers+1", replay_ms(dag, k + 1));
    if (k > 1) {
      add("workers-1", replay_ms(dag, k - 1));
      add("workers*2", replay_ms(dag, 2 * k));
    }
  }

  if (options.keep_path) report.path = std::move(steps);
  return report;
}

void publish(const CriticalPathReport& report, obs::Registry* registry) {
  obs::Registry& reg = registry != nullptr ? *registry : obs::registry();
  reg.gauge("ramiel_critpath_compute_ms",
            "Critical-path compute time of the last analyzed run (ms)")
      ->set(report.compute_ms);
  reg.gauge("ramiel_critpath_comm_ms",
            "Critical-path cross-worker data-wait time (ms)")
      ->set(report.comm_ms);
  reg.gauge("ramiel_critpath_queue_ms",
            "Critical-path same-worker queueing time (ms)")
      ->set(report.queue_ms);
  reg.gauge("ramiel_critpath_idle_ms",
            "Critical-path unattributed idle time (ms)")
      ->set(report.idle_ms);
  for (const ClusterAttribution& c : report.clusters) {
    if (c.cluster < 0) continue;
    reg.gauge("ramiel_critpath_cluster_share",
              "Share of the realized critical path spent in each cluster",
              {{"cluster", std::to_string(c.cluster)}})
        ->set(c.critpath_share);
  }
}

}  // namespace ramiel::prof

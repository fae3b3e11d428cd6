#include "obs/prof/whatif.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace ramiel::prof {

ReplayComm estimate_comm(const Profile& profile) {
  std::vector<double> latencies;
  std::vector<double> per_byte;
  for (const MessageEvent& m : profile.messages) {
    if (m.recv_ns <= m.send_ns) continue;  // never consumed / zero latency
    const double lat = static_cast<double>(m.recv_ns - m.send_ns);
    latencies.push_back(lat);
    if (m.bytes > 0) per_byte.push_back(lat / static_cast<double>(m.bytes));
  }
  if (latencies.empty()) return {};
  // The fixed floor is the cheapest delivery seen; the slope is the median
  // per-byte latency above that floor (medians resist the tail where a
  // receiver was busy and "latency" includes its queueing).
  ReplayComm comm;
  comm.fixed_ns = *std::min_element(latencies.begin(), latencies.end());
  if (!per_byte.empty()) {
    std::nth_element(per_byte.begin(),
                     per_byte.begin() + static_cast<std::ptrdiff_t>(
                                            per_byte.size() / 2),
                     per_byte.end());
    comm.ns_per_byte = per_byte[per_byte.size() / 2];
  }
  return comm;
}

RecordedDag build_recorded_dag(const Graph& graph, const Profile& profile,
                               const ReplayComm& comm) {
  RecordedDag dag;
  dag.workers = std::max<int>(1, static_cast<int>(profile.workers.size()));

  // Recorded start order is a valid topological order of the executed DAG:
  // every consumer started only after its producer finished.
  dag.event.resize(profile.events.size());
  std::iota(dag.event.begin(), dag.event.end(), 0);
  std::sort(dag.event.begin(), dag.event.end(),
            [&](std::int32_t a, std::int32_t b) {
              const TaskEvent& ea = profile.events[static_cast<std::size_t>(a)];
              const TaskEvent& eb = profile.events[static_cast<std::size_t>(b)];
              return std::tie(ea.start_ns, ea.node, ea.sample) <
                     std::tie(eb.start_ns, eb.node, eb.sample);
            });
  dag.tasks.reserve(dag.event.size());
  for (std::int32_t i : dag.event) {
    const TaskEvent& e = profile.events[static_cast<std::size_t>(i)];
    sim::Task& t = dag.tasks.emplace_back();
    t.node = e.node;
    t.sample = e.sample;
    t.home = e.worker;
    t.dur = static_cast<double>(e.end_ns - e.start_ns);
  }
  sim::link_data_preds(graph, dag.tasks, [&](ValueId v) {
    const double floats = static_cast<double>(graph.value(v).shape.numel());
    return comm.fixed_ns + comm.ns_per_byte * 4.0 * floats;
  });
  return dag;
}

double replay_ms(const RecordedDag& dag, int workers,
                 const std::vector<double>* scale) {
  std::vector<sim::Task> tasks = dag.tasks;
  if (scale != nullptr) {
    for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].dur *= (*scale)[i];
  }
  return sim::schedule(tasks, std::max(1, workers), sim::Policy::kGreedy)
             .makespan /
         1e6;
}

double replay_node_speedup_ms(const RecordedDag& dag, int workers,
                              NodeId node, double factor) {
  std::vector<double> scale(dag.tasks.size(), 1.0);
  for (std::size_t i = 0; i < dag.tasks.size(); ++i) {
    if (dag.tasks[i].node == node) scale[i] = 1.0 / factor;
  }
  return replay_ms(dag, workers, &scale);
}

}  // namespace ramiel::prof

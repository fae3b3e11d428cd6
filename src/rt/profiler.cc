#include "rt/profiler.h"

#include <set>
#include <string>

#include "graph/op_kind.h"
#include "obs/trace.h"

namespace ramiel {

double Profile::total_slack_ms() const {
  std::int64_t total = 0;
  for (const WorkerProfile& w : workers) total += w.recv_wait_ns;
  return static_cast<double>(total) / 1e6;
}

double Profile::utilization() const {
  if (workers.empty() || wall_ms <= 0.0) return 0.0;
  std::int64_t busy = 0;
  for (const WorkerProfile& w : workers) busy += w.busy_ns;
  return static_cast<double>(busy) / 1e6 /
         (wall_ms * static_cast<double>(workers.size()));
}

std::int64_t Profile::total_bytes_sent() const {
  std::int64_t total = 0;
  for (const WorkerProfile& w : workers) total += w.bytes_sent;
  return total;
}

void Profile::to_timeline(const Graph& graph, obs::Timeline& timeline,
                          std::uint64_t flow_id_base,
                          const std::vector<std::pair<NodeId, int>>* critical)
    const {
  timeline.process_name(obs::kRuntimePid, "runtime");
  for (std::size_t w = 0; w < workers.size(); ++w) {
    timeline.thread_name(obs::kRuntimePid, static_cast<int>(w),
                         "worker " + std::to_string(w));
  }
  std::set<std::pair<NodeId, int>> on_path;
  if (critical != nullptr) on_path.insert(critical->begin(), critical->end());
  for (const TaskEvent& e : events) {
    const Node& n = graph.node(e.node);
    const bool hot = on_path.count({e.node, e.sample}) != 0;
    timeline.span(n.name,
                  hot ? "task.critical" : std::string(op_kind_name(n.kind)),
                  obs::kRuntimePid, e.worker, e.start_ns, e.end_ns,
                  {obs::Timeline::Arg{"sample", e.sample},
                   obs::Timeline::Arg{"critpath", hot ? 1 : 0}});
  }
  std::uint64_t flow_id = flow_id_base;
  for (const MessageEvent& m : messages) {
    if (m.recv_ns == 0) continue;  // sent but never consumed (padding etc.)
    timeline.flow("msg " + graph.value(m.value).name, "message", flow_id++,
                  obs::kRuntimePid, m.src_worker, m.send_ns, obs::kRuntimePid,
                  m.dst_worker, m.recv_ns);
  }
  for (const QueueDepthSample& q : queue_depths) {
    timeline.counter("queue depth w" + std::to_string(q.worker),
                     obs::kRuntimePid, q.ts_ns,
                     static_cast<double>(q.depth));
  }
}

std::string Profile::to_chrome_trace(const Graph& graph) const {
  obs::Timeline timeline;
  to_timeline(graph, timeline);
  return timeline.to_chrome_json();
}

}  // namespace ramiel

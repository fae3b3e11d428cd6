// Execution profiling: per-task trace events, cross-worker message flow,
// and per-worker receive-slack accounting (the paper's "profile database"
// that motivates hyperclustering in §III-E and feeds the switched-
// hypercluster decisions).
//
// All timestamps come from Stopwatch::now_ns() (steady_clock), the same
// clock the compiler's PassReports use, so a runtime Profile and a compile
// report merge into one obs::Timeline with correct relative placement.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ramiel::obs {
class Timeline;
}  // namespace ramiel::obs

namespace ramiel {

/// One executed task (node x sample) on one worker.
struct TaskEvent {
  NodeId node = kNoNode;
  int sample = 0;
  int worker = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One cross-worker tensor hand-off of the pinned placement: a cross-home
/// dependency edge, sent when the producing task ended and received when
/// the first consuming task on the other worker started. Collected only
/// when tracing is on.
struct MessageEvent {
  ValueId value = kNoNode;  // ValueId and NodeId share the -1 sentinel
  int sample = 0;
  int src_worker = 0;
  int dst_worker = 0;
  std::int64_t send_ns = 0;   // sender-side put() timestamp
  std::int64_t recv_ns = 0;   // receiver-side consumption; 0 = never consumed
  std::int64_t bytes = 0;     // payload size
};

/// Tensors sent to one worker but not yet consumed there, sampled at every
/// send and receive while tracing (rendered as a Perfetto counter track).
struct QueueDepthSample {
  int worker = 0;
  std::int64_t ts_ns = 0;
  int depth = 0;
};

/// Per-worker summary.
struct WorkerProfile {
  std::int64_t busy_ns = 0;        // time inside kernels
  std::int64_t recv_wait_ns = 0;   // slack: asleep waiting for another
                                   // worker's release (static placement)
                                   // or parked idle (steal)
  int tasks = 0;
  int tasks_stolen = 0;            // steal placement: tasks taken from a
                                   // victim's deque (0 when pinned)
  int messages_sent = 0;
  std::int64_t bytes_sent = 0;     // payload bytes shipped to other workers
  std::int64_t bytes_received = 0; // payload bytes consumed from others
  int allocs_avoided = 0;          // kernel outputs served from the arena
};

/// Whole-run profile.
struct Profile {
  std::vector<TaskEvent> events;        // empty unless tracing was on
  std::vector<MessageEvent> messages;   // empty unless tracing was on
  std::vector<QueueDepthSample> queue_depths;  // empty unless tracing was on
  std::vector<WorkerProfile> workers;   // one per worker (1 for sequential)
  double wall_ms = 0.0;
  std::int64_t start_ns = 0;  // run window begin (same clock as the events);
  std::int64_t end_ns = 0;    // 0/0 = unknown, fall back to event extents

  /// Total receive slack across workers, in milliseconds.
  double total_slack_ms() const;

  /// Ratio of summed busy time to (workers x wall time); 1.0 = perfectly
  /// load balanced with no waiting.
  double utilization() const;

  /// Total payload bytes sent across workers.
  std::int64_t total_bytes_sent() const;

  /// Appends this run to a unified timeline (task spans on the runtime pid,
  /// message-flow arrows, queue-depth counter tracks). `flow_id_base` keeps
  /// arrow ids unique when several profiles land on one timeline. When
  /// `critical` is non-null, tasks whose (node, sample) appear in it are
  /// emitted with category "task.critical" and a `critpath` arg so Perfetto
  /// renders the realized critical path as its own colour.
  void to_timeline(const Graph& graph, obs::Timeline& timeline,
                   std::uint64_t flow_id_base = 0,
                   const std::vector<std::pair<NodeId, int>>* critical =
                       nullptr) const;

  /// Renders the trace in Chrome's trace-event JSON format (load via
  /// chrome://tracing or Perfetto) for visual slack inspection.
  std::string to_chrome_trace(const Graph& graph) const;
};

}  // namespace ramiel

// Unified trace timeline in Chrome trace-event JSON (loadable in Perfetto
// or chrome://tracing).
//
// Every subsystem that measures time stamps events with the same clock
// (Stopwatch::now_ns, steady_clock), so compile passes, per-task kernel
// execution, cross-worker message flows and fleet batch dispatches all
// land on one coherent timeline — the slack-analysis view the paper's
// Fig. 13/14 reasoning implies. Conventions used by the built-in emitters:
//
//   pid kCompilerPid (1) — compiler passes (one track)
//   pid kRuntimePid  (0) — executor workers (tid = worker index)
//   pid 3 + i        — fleet tenant i's batch dispatches (fleet_server.h)
//
// A Timeline is an accumulation buffer, not a hot-path structure: emitters
// append events while converting already-collected profiles/reports, then
// serialize once. Not thread-safe; build and serialize from one thread.
//
// The span buffer is bounded: past `capacity` events the Timeline becomes a
// ring and overwrites its *oldest* events (a long ramiel_serve run with
// --trace-out keeps the most recent window instead of growing without
// limit). Overwrites are counted in dropped() and in the process-wide
// ramiel_trace_dropped_spans_total counter. Track-name metadata is kept
// aside and never dropped, so a truncated trace still labels its tracks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ramiel::obs {

inline constexpr int kRuntimePid = 0;
inline constexpr int kCompilerPid = 1;

class Timeline {
 public:
  /// Default event capacity (~a few hundred MB of JSON at worst).
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit Timeline(std::size_t capacity = kDefaultCapacity);

  /// One argument shown in the Perfetto detail pane for an event.
  struct Arg {
    Arg(std::string key, std::string value)
        : key(std::move(key)), str(std::move(value)), is_number(false) {}
    Arg(std::string key, double value)
        : key(std::move(key)), num(value), is_number(true) {}
    Arg(std::string key, std::int64_t value)
        : Arg(std::move(key), static_cast<double>(value)) {}
    Arg(std::string key, int value)
        : Arg(std::move(key), static_cast<double>(value)) {}

    std::string key;
    std::string str;
    double num = 0.0;
    bool is_number = false;
  };

  /// Complete event ("X"): one span [start_ns, end_ns) on a track.
  void span(std::string name, std::string cat, int pid, int tid,
            std::int64_t start_ns, std::int64_t end_ns,
            std::vector<Arg> args = {});

  /// Instant event ("i", thread scope).
  void instant(std::string name, std::string cat, int pid, int tid,
               std::int64_t ts_ns, std::vector<Arg> args = {});

  /// Counter event ("C"): Perfetto renders a value-over-time track.
  void counter(std::string name, int pid, std::int64_t ts_ns, double value);

  /// Flow arrow from (src_pid, src_tid, send_ns) to (dst_pid, dst_tid,
  /// recv_ns) — the s/f event pair Perfetto draws as an arrow between
  /// spans. `id` must be unique per arrow within the trace.
  void flow(std::string name, std::string cat, std::uint64_t id, int src_pid,
            int src_tid, std::int64_t send_ns, int dst_pid, int dst_tid,
            std::int64_t recv_ns);

  /// Names a process / thread track in the viewer.
  void process_name(int pid, std::string name);
  void thread_name(int pid, int tid, std::string name);

  bool empty() const { return events_.empty() && meta_.empty(); }
  std::size_t size() const { return events_.size() + meta_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Serializes as {"traceEvents":[...]} (the Chrome JSON object form).
  std::string to_chrome_json() const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    char ph = 'X';
    int pid = 0;
    int tid = 0;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = -1;      // "X" only
    double counter_value = 0.0;    // "C" only
    std::uint64_t flow_id = 0;     // "s"/"f" only
    bool has_flow_id = false;
    std::vector<Arg> args;
  };

  void push(Event e);

  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest event once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::vector<Event> meta_;  // 'M' track names, never dropped
};

}  // namespace ramiel::obs

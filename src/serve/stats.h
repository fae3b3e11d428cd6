// Serving metrics.
//
// StatsCollector is a fleet tenant's thread-safe accumulator, rebased onto the
// obs metrics registry: every counter/gauge/histogram it maintains is a
// labeled series (instance="N") in a Registry — by default the process-wide
// obs::registry() — so a Prometheus scrape or obs JSON export sees exactly
// what snapshot() reports, and hot-path updates are lock-free atomics
// rather than a collector-wide mutex. ServerStats is the immutable snapshot
// handed to callers.
//
// Latency percentiles come from a fixed-size reservoir (latest 64Ki
// samples, the one mutex-guarded structure left) so a long-lived server's
// memory stays bounded; the registry histogram carries the same latencies
// in fixed buckets for scraping. Histogram buckets quantize tails — a p99
// interpolated from 25/50/100 ms bucket edges can be off by 2x — so a
// second, smaller reservoir holds the *current window's* exact latencies:
// window_snapshot() reports exact percentiles for the interval since the
// previous window_snapshot() (exact up to 16Ki requests per window, ring
// overwrite beyond), which is what the metrics emitter writes per tick.
// Per-worker busy/slack totals reuse the runtime's Profile — the same
// "profile database" that motivates hyperclustering in the paper now
// doubles as the production utilization metric.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rt/profiler.h"

namespace ramiel::serve {

/// Latency distribution over the reservoir, in milliseconds.
struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Point-in-time view of a server's counters.
struct ServerStats {
  std::uint64_t submitted = 0;  // accepted + rejected
  std::uint64_t served = 0;     // responses delivered ok
  std::uint64_t rejected = 0;   // refused at submit: malformed inputs,
                                // quota, queue full or closed
  std::uint64_t failed = 0;     // accepted but errored during execution
  std::uint64_t batches = 0;    // executor dispatches
  std::uint64_t batch_slots = 0;    // batches x batch size
  std::uint64_t batch_samples = 0;  // real requests across those batches
  double uptime_ms = 0.0;
  double exec_wall_ms = 0.0;     // summed executor wall time
  double worker_busy_ms = 0.0;   // summed kernel time across workers
  double worker_slack_ms = 0.0;  // summed receive-wait across workers
  std::uint64_t bytes_moved = 0; // cross-worker message payload bytes
  int num_workers = 0;
  LatencySummary latency;

  // Exact latencies of the current emitter window (since the last
  // window_snapshot()); window_served counts the samples behind it.
  LatencySummary window_latency;
  std::uint64_t window_served = 0;

  /// Fraction of dispatched batch slots that carried real requests
  /// (1.0 = every batch left full). A batch is what was queued when it
  /// left, so the fill follows the load: low values mean requests rarely
  /// queue behind a running batch. Empty slots cost no compute: a short
  /// batch runs only its real samples.
  double batch_fill() const;

  /// Served requests per second of uptime.
  double throughput_rps() const;

  /// Kernel-busy fraction of the workers while the executor was running —
  /// Profile::utilization() aggregated over every dispatched batch.
  double worker_utilization() const;

  /// Multi-line human-readable report (used by the CLI and bench).
  std::string to_string() const;

  /// One JSON object with every field above (the --metrics-out JSONL line;
  /// `ts_ms` is the caller-supplied snapshot timestamp).
  std::string to_json(double ts_ms = 0.0) const;
};

/// Thread-safe accumulator behind FleetServer::tenant_stats(). Pass a
/// registry to isolate series in tests; the default shares obs::registry().
class StatsCollector {
 public:
  explicit StatsCollector(obs::Registry* registry = nullptr);

  void on_submit();
  void on_reject();
  void on_failed();
  void on_served(double latency_ms);
  /// Records one executor dispatch of `real` requests in `slots` slots.
  void on_batch(int real, int slots, const Profile& profile);

  ServerStats snapshot() const;

  /// snapshot(), then resets the per-window latency reservoir so the next
  /// call reports the interval starting now. The metrics emitter's tick.
  /// After freeze() the window is final: every call returns it unreset.
  ServerStats window_snapshot() const;

  /// Pins uptime at the current instant and ends the current window
  /// (idempotent: the first call wins). Called by FleetServer::shutdown()
  /// and remove_model() after the drain — without it every later snapshot
  /// keeps growing uptime_ms, silently decaying the reported
  /// throughput_rps of a finished run, and the first later window_snapshot
  /// would consume the last partial window.
  void freeze();

  /// The instance label value of this collector's registry series.
  const std::string& instance() const { return instance_; }

 private:
  static constexpr std::size_t kReservoirCap = 1u << 16;
  static constexpr std::size_t kWindowCap = 1u << 14;

  ServerStats snapshot_impl(bool reset_window) const;

  std::string instance_;

  // Registry-owned series (labeled instance=instance_); lock-free updates.
  obs::Counter* submitted_;
  obs::Counter* served_;
  obs::Counter* rejected_;
  obs::Counter* failed_;
  obs::Counter* batches_;
  obs::Counter* batch_slots_;
  obs::Counter* batch_samples_;
  obs::Counter* bytes_moved_;
  obs::Gauge* exec_wall_ms_;
  obs::Gauge* worker_busy_ms_;
  obs::Gauge* worker_slack_ms_;
  obs::Gauge* num_workers_;
  obs::Gauge* queue_depth_;
  obs::Histogram* latency_hist_;

  // Exact-percentile reservoirs (scrapes use the histogram instead).
  // window_* is reset by window_snapshot(), hence mutable: resetting a
  // measurement window is not a logical mutation of the collector.
  mutable std::mutex mu_;
  std::vector<double> latencies_;   // ring once kReservoirCap is reached
  std::uint64_t latency_count_ = 0;
  mutable std::vector<double> window_;  // ring once kWindowCap is reached
  mutable std::uint64_t window_count_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;  // 0 = still running; set once by freeze()

 public:
  /// Gauge mirroring the tenant's request-queue depth (set by the fleet
  /// on every batch; exposed for scraping as
  /// ramiel_serve_queue_depth{instance=...}).
  obs::Gauge* queue_depth_gauge() { return queue_depth_; }
};

}  // namespace ramiel::serve

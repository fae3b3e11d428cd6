// Periodic metrics snapshot emitter for the serving runtime.
//
// A sidecar thread that, every interval, (a) appends one JSON object line
// with a window-stats source's ServerStats (one fleet tenant's
// tenant_window_stats) to a JSONL file — the append-only history a
// dashboard or regression script tails — and (b) rewrites a Prometheus
// textfile with the full obs registry (serve series plus the runtime and
// compiler families), the node-exporter textfile-collector handoff that
// stands in for an HTTP /metrics endpoint in this network-less container.
//
// The textfile rewrite goes through a temp file + rename so a scraper never
// reads a half-written exposition.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "serve/stats.h"
#include "support/env.h"

namespace ramiel::serve {

/// Returns the stats since the previous call: cumulative counters plus the
/// exact-latency window, which the call resets (and the final window after
/// shutdown), e.g. FleetServer::tenant_window_stats bound to a tenant.
using WindowStatsFn = std::function<ServerStats()>;

struct MetricsEmitterOptions {
  /// JSONL history; one ServerStats snapshot object per line. Empty
  /// disables the JSONL output.
  std::string jsonl_path;
  /// Prometheus textfile, atomically rewritten each interval. Empty
  /// disables the textfile output.
  std::string prom_path;
  /// Snapshot period. Deployment override: RAMIEL_METRICS_INTERVAL_MS.
  double interval_ms = env_metrics_interval_ms(1000);
};

/// Owns the emitter thread; emits a final snapshot on stop()/destruction so
/// short runs (tests, CLI loadgen) always leave complete files behind.
class MetricsEmitter {
 public:
  MetricsEmitter(WindowStatsFn window_stats, MetricsEmitterOptions options);
  ~MetricsEmitter();

  MetricsEmitter(const MetricsEmitter&) = delete;
  MetricsEmitter& operator=(const MetricsEmitter&) = delete;

  /// Stops the thread after one final emit. Idempotent.
  void stop();

  /// Snapshots emitted so far (test/debug aid).
  int emits() const;

 private:
  void loop();
  void emit_once();

  WindowStatsFn window_stats_;
  MetricsEmitterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  int emits_ = 0;

  std::thread thread_;
};

}  // namespace ramiel::serve

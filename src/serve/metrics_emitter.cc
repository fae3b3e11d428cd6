#include "serve/metrics_emitter.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/metrics.h"
#include "support/stopwatch.h"

namespace ramiel::serve {

MetricsEmitter::MetricsEmitter(WindowStatsFn window_stats,
                               MetricsEmitterOptions options)
    : window_stats_(std::move(window_stats)), options_(std::move(options)) {
  if (options_.interval_ms <= 0.0) options_.interval_ms = 1000.0;
  // Truncate any stale JSONL from a previous run: each emitter owns one
  // run's history (appends happen within the run, not across runs).
  if (!options_.jsonl_path.empty()) {
    std::ofstream(options_.jsonl_path, std::ios::trunc);
  }
  thread_ = std::thread([this] { loop(); });
}

MetricsEmitter::~MetricsEmitter() { stop(); }

void MetricsEmitter::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  emit_once();  // final snapshot so short runs still produce output
}

int MetricsEmitter::emits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return emits_;
}

void MetricsEmitter::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    const auto period = std::chrono::duration<double, std::milli>(
        options_.interval_ms);
    if (cv_.wait_for(lk, period, [&] { return stopping_; })) break;
    lk.unlock();
    emit_once();
    lk.lock();
  }
}

void MetricsEmitter::emit_once() {
  // window_stats: each JSONL line carries the exact-latency window since
  // the previous emit (cumulative counters are unaffected).
  const ServerStats stats = window_stats_();
  const double ts_ms =
      static_cast<double>(Stopwatch::now_ns()) / 1e6;

  if (!options_.jsonl_path.empty()) {
    std::ofstream os(options_.jsonl_path, std::ios::app);
    os << stats.to_json(ts_ms) << "\n";
  }
  if (!options_.prom_path.empty()) {
    const std::string tmp = options_.prom_path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      os << obs::registry().to_prometheus();
    }
    std::rename(tmp.c_str(), options_.prom_path.c_str());
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++emits_;
}

}  // namespace ramiel::serve

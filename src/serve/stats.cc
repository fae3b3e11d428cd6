#include "serve/stats.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/json.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace ramiel::serve {
namespace {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary out;
  if (samples.empty()) return out;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double v : sorted) sum += v;
  out.mean_ms = sum / static_cast<double>(sorted.size());
  out.p50_ms = percentile(sorted, 50.0);
  out.p95_ms = percentile(sorted, 95.0);
  out.p99_ms = percentile(sorted, 99.0);
  out.max_ms = sorted.back();
  return out;
}

/// Each collector gets a unique instance label so several servers in one
/// process stay distinct series of the same metric families.
std::string next_instance() {
  static std::atomic<int> counter{0};
  return std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

double ServerStats::batch_fill() const {
  return batch_slots == 0 ? 0.0
                          : static_cast<double>(batch_samples) /
                                static_cast<double>(batch_slots);
}

double ServerStats::throughput_rps() const {
  return uptime_ms <= 0.0 ? 0.0
                          : static_cast<double>(served) / (uptime_ms / 1e3);
}

double ServerStats::worker_utilization() const {
  const double denom = exec_wall_ms * num_workers;
  return denom <= 0.0 ? 0.0 : worker_busy_ms / denom;
}

std::string ServerStats::to_string() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "requests      : %llu submitted, %llu served, %llu rejected, %llu "
      "failed\n"
      "throughput    : %.1f req/s over %.1f s\n"
      "latency (ms)  : mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n"
      "batching      : %llu batches, fill %.2f (%llu/%llu slots)\n"
      "workers       : %d, utilization %.2f (busy %.1f ms, slack %.1f ms, "
      "exec wall %.1f ms, %.1f KiB moved)",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed), throughput_rps(),
      uptime_ms / 1e3, latency.mean_ms, latency.p50_ms, latency.p95_ms,
      latency.p99_ms, latency.max_ms,
      static_cast<unsigned long long>(batches), batch_fill(),
      static_cast<unsigned long long>(batch_samples),
      static_cast<unsigned long long>(batch_slots), num_workers,
      worker_utilization(), worker_busy_ms, worker_slack_ms, exec_wall_ms,
      static_cast<double>(bytes_moved) / 1024.0);
  return buf;
}

std::string ServerStats::to_json(double ts_ms) const {
  using obs::json_number;
  std::string out = "{";
  out += "\"ts_ms\":" + json_number(ts_ms);
  out += ",\"uptime_ms\":" + json_number(uptime_ms);
  out += ",\"submitted\":" + std::to_string(submitted);
  out += ",\"served\":" + std::to_string(served);
  out += ",\"rejected\":" + std::to_string(rejected);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"batches\":" + std::to_string(batches);
  out += ",\"batch_slots\":" + std::to_string(batch_slots);
  out += ",\"batch_samples\":" + std::to_string(batch_samples);
  out += ",\"batch_fill\":" + json_number(batch_fill());
  out += ",\"throughput_rps\":" + json_number(throughput_rps());
  out += ",\"exec_wall_ms\":" + json_number(exec_wall_ms);
  out += ",\"worker_busy_ms\":" + json_number(worker_busy_ms);
  out += ",\"worker_slack_ms\":" + json_number(worker_slack_ms);
  out += ",\"bytes_moved\":" + std::to_string(bytes_moved);
  out += ",\"num_workers\":" + std::to_string(num_workers);
  out += ",\"worker_utilization\":" + json_number(worker_utilization());
  out += ",\"latency\":{";
  out += "\"mean_ms\":" + json_number(latency.mean_ms);
  out += ",\"p50_ms\":" + json_number(latency.p50_ms);
  out += ",\"p95_ms\":" + json_number(latency.p95_ms);
  out += ",\"p99_ms\":" + json_number(latency.p99_ms);
  out += ",\"max_ms\":" + json_number(latency.max_ms);
  out += "},\"window\":{";
  out += "\"served\":" + std::to_string(window_served);
  out += ",\"mean_ms\":" + json_number(window_latency.mean_ms);
  out += ",\"p50_ms\":" + json_number(window_latency.p50_ms);
  out += ",\"p95_ms\":" + json_number(window_latency.p95_ms);
  out += ",\"p99_ms\":" + json_number(window_latency.p99_ms);
  out += ",\"max_ms\":" + json_number(window_latency.max_ms);
  out += "}}";
  return out;
}

StatsCollector::StatsCollector(obs::Registry* registry)
    : instance_(next_instance()), start_ns_(Stopwatch::now_ns()) {
  obs::Registry& reg = registry != nullptr ? *registry : obs::registry();
  const obs::Labels inst = {{"instance", instance_}};
  auto outcome = [&](const char* v) {
    obs::Labels l = inst;
    l.emplace_back("outcome", v);
    return reg.counter("ramiel_serve_requests_total",
                       "Requests by outcome (submitted/served/rejected/"
                       "failed)",
                       l);
  };
  submitted_ = outcome("submitted");
  served_ = outcome("served");
  rejected_ = outcome("rejected");
  failed_ = outcome("failed");
  batches_ = reg.counter("ramiel_serve_batches_total",
                         "Executor batch dispatches", inst);
  batch_slots_ = reg.counter("ramiel_serve_batch_slots_total",
                             "Dispatched batch slots (batches x batch size)",
                             inst);
  batch_samples_ = reg.counter("ramiel_serve_batch_samples_total",
                               "Real requests carried in dispatched slots",
                               inst);
  bytes_moved_ = reg.counter("ramiel_serve_bytes_moved_total",
                             "Cross-worker message payload bytes", inst);
  exec_wall_ms_ = reg.gauge("ramiel_serve_exec_wall_ms_total",
                            "Cumulative executor wall time (ms)", inst);
  worker_busy_ms_ = reg.gauge("ramiel_serve_worker_busy_ms_total",
                              "Cumulative worker kernel time (ms)", inst);
  worker_slack_ms_ = reg.gauge("ramiel_serve_worker_slack_ms_total",
                               "Cumulative worker receive-wait time (ms)",
                               inst);
  num_workers_ = reg.gauge("ramiel_serve_num_workers",
                           "Cluster workers behind this server", inst);
  queue_depth_ = reg.gauge("ramiel_serve_queue_depth",
                           "Requests waiting in the admission queue", inst);
  latency_hist_ = reg.histogram("ramiel_serve_latency_ms",
                                "Request latency (ms)", {}, inst);
  latencies_.reserve(1024);
}

void StatsCollector::on_submit() { submitted_->inc(); }

void StatsCollector::on_reject() { rejected_->inc(); }

void StatsCollector::on_failed() { failed_->inc(); }

void StatsCollector::on_served(double latency_ms) {
  served_->inc();
  latency_hist_->observe(latency_ms);
  std::lock_guard<std::mutex> lk(mu_);
  if (latencies_.size() < kReservoirCap) {
    latencies_.push_back(latency_ms);
  } else {
    latencies_[latency_count_ % kReservoirCap] = latency_ms;
  }
  ++latency_count_;
  if (window_.size() < kWindowCap) {
    window_.push_back(latency_ms);
  } else {
    window_[window_count_ % kWindowCap] = latency_ms;
  }
  ++window_count_;
}

void StatsCollector::on_batch(int real, int slots, const Profile& profile) {
  RAMIEL_CHECK(real >= 1 && real <= slots, "batch fill out of range");
  batches_->inc();
  batch_slots_->inc(static_cast<std::uint64_t>(slots));
  batch_samples_->inc(static_cast<std::uint64_t>(real));
  exec_wall_ms_->add(profile.wall_ms);
  if (static_cast<double>(profile.workers.size()) > num_workers_->value()) {
    num_workers_->set(static_cast<double>(profile.workers.size()));
  }
  double busy_ms = 0.0, slack_ms = 0.0;
  std::uint64_t bytes = 0;
  for (const WorkerProfile& w : profile.workers) {
    busy_ms += static_cast<double>(w.busy_ns) / 1e6;
    slack_ms += static_cast<double>(w.recv_wait_ns) / 1e6;
    bytes += static_cast<std::uint64_t>(w.bytes_sent);
  }
  worker_busy_ms_->add(busy_ms);
  worker_slack_ms_->add(slack_ms);
  bytes_moved_->inc(bytes);
}

ServerStats StatsCollector::snapshot() const { return snapshot_impl(false); }

void StatsCollector::freeze() {
  std::lock_guard<std::mutex> lk(mu_);
  if (end_ns_ == 0) end_ns_ = Stopwatch::now_ns();
}

ServerStats StatsCollector::window_snapshot() const {
  return snapshot_impl(true);
}

ServerStats StatsCollector::snapshot_impl(bool reset_window) const {
  ServerStats out;
  out.submitted = submitted_->value();
  out.served = served_->value();
  out.rejected = rejected_->value();
  out.failed = failed_->value();
  out.batches = batches_->value();
  out.batch_slots = batch_slots_->value();
  out.batch_samples = batch_samples_->value();
  out.bytes_moved = bytes_moved_->value();
  out.exec_wall_ms = exec_wall_ms_->value();
  out.worker_busy_ms = worker_busy_ms_->value();
  out.worker_slack_ms = worker_slack_ms_->value();
  out.num_workers = static_cast<int>(num_workers_->value());
  std::lock_guard<std::mutex> lk(mu_);
  out.uptime_ms = static_cast<double>((end_ns_ != 0 ? end_ns_
                                                    : Stopwatch::now_ns()) -
                                      start_ns_) /
                  1e6;
  out.latency = summarize(latencies_);
  out.window_latency = summarize(window_);
  out.window_served = window_count_;
  if (reset_window && end_ns_ == 0) {
    window_.clear();
    window_count_ = 0;
  }
  return out;
}

}  // namespace ramiel::serve

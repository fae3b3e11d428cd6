#include "serve/loadgen.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "rt/inputs.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"

namespace ramiel::serve {

LoadReport run_closed_loop(const SubmitFn& submit, const Graph& graph,
                           const LoadOptions& opts) {
  RAMIEL_CHECK(opts.clients >= 1, "need at least one client");
  RAMIEL_CHECK(opts.requests >= 1, "need at least one request");
  RAMIEL_CHECK(opts.distinct_inputs >= 1, "need at least one input sample");

  // Pre-generate the request payloads once; generation cost must not show
  // up inside the measured window.
  Rng rng(opts.seed);
  const std::vector<TensorMap> samples =
      make_example_inputs(graph, opts.distinct_inputs, rng);

  std::atomic<int> remaining{opts.requests};
  std::atomic<int> offered{0};
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::atomic<int> failed{0};

  auto client_fn = [&](int id) {
    int consecutive_rejects = 0;
    int sample = id;  // stagger which payload each client starts on
    // fetch_sub: each decrement claims one response slot; a client retries
    // its claimed slot on rejection so the total completes adds up.
    while (remaining.fetch_sub(1) > 0) {
      bool done = false;
      while (!done) {
        const TensorMap& payload =
            samples[static_cast<std::size_t>(sample) % samples.size()];
        offered.fetch_add(1);
        std::future<Response> fut = submit(TensorMap(payload));
        Response resp = fut.get();
        if (resp.ok) {
          completed.fetch_add(1);
          consecutive_rejects = 0;
          done = true;
        } else if (resp.batch_slots == 0) {  // rejected at admission
          rejected.fetch_add(1);
          ++consecutive_rejects;
          if (opts.max_consecutive_rejects > 0 &&
              consecutive_rejects >= opts.max_consecutive_rejects) {
            return;  // server saturated/closed; stop this client
          }
          if (opts.reject_backoff_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(opts.reject_backoff_us));
          }
        } else {  // accepted but failed in execution: don't retry bad input
          failed.fetch_add(1);
          done = true;
        }
      }
      ++sample;
      if (opts.think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(opts.think_us));
      }
    }
  };

  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(opts.clients));
  for (int c = 0; c < opts.clients; ++c) clients.emplace_back(client_fn, c);
  for (std::thread& t : clients) t.join();

  LoadReport report;
  report.wall_ms = wall.millis();
  report.offered = offered.load();
  report.completed = completed.load();
  report.rejected = rejected.load();
  report.failed = failed.load();
  report.achieved_rps = report.wall_ms <= 0.0
                            ? 0.0
                            : report.completed / (report.wall_ms / 1e3);
  return report;
}

LoadReport run_open_loop(const SubmitFn& submit, const Graph& graph,
                         const OpenLoopOptions& opts) {
  RAMIEL_CHECK(opts.rate_rps > 0.0, "open-loop rate must be > 0");
  RAMIEL_CHECK(opts.duration_ms > 0.0, "open-loop duration must be > 0");
  RAMIEL_CHECK(opts.distinct_inputs >= 1, "need at least one input sample");

  Rng rng(opts.seed);
  const std::vector<TensorMap> samples =
      make_example_inputs(graph, opts.distinct_inputs, rng);

  // Poisson process: exponential inter-arrival gaps with mean 1/rate,
  // walked on an absolute schedule (next_ns accumulates the gaps) so
  // submit-path latency does not thin the offered rate.
  std::vector<std::future<Response>> in_flight;
  in_flight.reserve(static_cast<std::size_t>(
      opts.rate_rps * opts.duration_ms / 1e3 * 2.0 + 16.0));

  Stopwatch wall;
  const std::int64_t start_ns = Stopwatch::now_ns();
  const std::int64_t deadline_ns =
      start_ns + static_cast<std::int64_t>(opts.duration_ms * 1e6);
  double next_ns = static_cast<double>(start_ns);
  int offered = 0;
  std::size_t sample = 0;
  while (true) {
    // Inverse-transform sampling; next_float() is in [0,1), so 1-u is in
    // (0,1] and the log is finite.
    const double gap_s =
        -std::log(1.0 - static_cast<double>(rng.next_float())) /
        opts.rate_rps;
    next_ns += gap_s * 1e9;
    if (next_ns > static_cast<double>(deadline_ns)) break;
    const std::int64_t now = Stopwatch::now_ns();
    if (static_cast<double>(now) < next_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<std::int64_t>(next_ns - static_cast<double>(now))));
    }
    in_flight.push_back(submit(TensorMap(samples[sample % samples.size()])));
    ++sample;
    ++offered;
  }
  const double offered_wall_ms = wall.millis();

  LoadReport report;
  report.offered = offered;
  for (std::future<Response>& fut : in_flight) {
    Response resp = fut.get();
    if (resp.ok) {
      ++report.completed;
    } else if (resp.batch_slots == 0) {
      ++report.rejected;
    } else {
      ++report.failed;
    }
  }
  // Throughput over the offering window (not the drain): completions per
  // second while load was actually being offered.
  report.wall_ms = offered_wall_ms;
  report.achieved_rps = report.wall_ms <= 0.0
                            ? 0.0
                            : report.completed / (report.wall_ms / 1e3);
  return report;
}

bool parse_arrival(const std::string& text, ArrivalSpec* out,
                   std::string* error) {
  if (text == "closed") {
    out->open_loop = false;
    out->rate_rps = 0.0;
    return true;
  }
  const std::string prefix = "poisson:";
  if (text.rfind(prefix, 0) == 0) {
    const std::string rate = text.substr(prefix.size());
    char* end = nullptr;
    const double v = std::strtod(rate.c_str(), &end);
    if (!rate.empty() && end != nullptr && *end == '\0' && v > 0.0 &&
        std::isfinite(v)) {
      out->open_loop = true;
      out->rate_rps = v;
      return true;
    }
  }
  if (error != nullptr) {
    *error = str_cat("bad arrival spec '", text,
                     "' (want closed or poisson:RATE with RATE > 0)");
  }
  return false;
}

}  // namespace ramiel::serve

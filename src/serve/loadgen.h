// Load generators for serving experiments.
//
// Closed loop models N concurrent users: each client thread submits one
// request, waits for its response, optionally thinks, and repeats — the
// standard closed-loop harness whose offered load is concurrency /
// (service time + think time). Rejected requests (admission control) are
// counted and retried after a short backoff, so a saturated server sees
// sustained offered load rather than a one-shot burst.
//
// Open loop models independent arrivals: requests fire on a Poisson
// process at a fixed offered rate, WITHOUT waiting for responses. Closed
// loops self-throttle — a slow server slows its own clients, hiding
// queueing delay — so fairness and admission experiments (the fleet bench)
// must offer load open-loop, where a saturating tenant keeps saturating no
// matter how badly it is served. Rejected requests are not retried (the
// arrival process, not the client, decides the rate).
//
// Both drivers accept any submit function: one tenant of a
// fleet::FleetServer bound to its name (a single-model server is a
// one-tenant fleet).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serve/request.h"
#include "support/rng.h"

namespace ramiel::serve {

/// One tenant's door, as the load generators see it: submit one sample,
/// get the response future (FleetServer::submit bound to a model name).
using SubmitFn = std::function<std::future<Response>(TensorMap)>;

struct LoadOptions {
  /// Concurrent closed-loop clients.
  int clients = 4;
  /// Total successful responses to collect across all clients.
  int requests = 100;
  /// Per-client pause between a response and the next submit.
  int think_us = 0;
  /// Distinct pre-generated input samples the clients rotate through.
  int distinct_inputs = 8;
  /// Backoff before retrying a rejected request.
  int reject_backoff_us = 200;
  /// Give up on a client loop after this many consecutive rejections
  /// (guards tests against a wedged server; 0 = never give up).
  int max_consecutive_rejects = 0;
  unsigned seed = 1;
};

struct LoadReport {
  int offered = 0;    // submissions fired (arrivals, incl. retries)
  int completed = 0;  // ok responses
  int rejected = 0;   // admission-control refusals (before any retry)
  int failed = 0;     // accepted but errored
  double wall_ms = 0.0;
  /// completed / wall — the sustained throughput the acceptance criteria
  /// compare across batch sizes.
  double achieved_rps = 0.0;
};

/// Drives `submit` with opts.clients closed-loop clients until
/// opts.requests responses have been collected; returns the aggregate
/// report. `graph` supplies the input signature the generated payloads
/// must match. Does not shut the server down.
LoadReport run_closed_loop(const SubmitFn& submit, const Graph& graph,
                           const LoadOptions& opts);

struct OpenLoopOptions {
  /// Offered arrival rate (requests/second of the Poisson process).
  double rate_rps = 100.0;
  /// How long to keep offering load.
  double duration_ms = 1000.0;
  /// Distinct pre-generated input samples the arrivals rotate through.
  int distinct_inputs = 8;
  unsigned seed = 1;
};

/// Offers Poisson arrivals at opts.rate_rps for opts.duration_ms, never
/// waiting for a response before the next arrival; outstanding futures are
/// collected after the offering window closes (their latency lands in the
/// server's stats). offered in the report counts every arrival fired.
LoadReport run_open_loop(const SubmitFn& submit, const Graph& graph,
                         const OpenLoopOptions& opts);

/// How a load driver offers traffic: "--arrival closed|poisson:RATE".
struct ArrivalSpec {
  bool open_loop = false;
  double rate_rps = 0.0;  // meaningful only when open_loop
};

/// Parses "closed" or "poisson:RATE" (RATE > 0, requests/second). Returns
/// false with *error filled on anything else.
bool parse_arrival(const std::string& text, ArrivalSpec* out,
                   std::string* error);

}  // namespace ramiel::serve

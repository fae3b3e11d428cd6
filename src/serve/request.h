// One single-sample inference request and what its client gets back — the
// unit every serving queue (fleet/admission.h) and load generator
// (loadgen.h) trades in.
#pragma once

#include <cstdint>
#include <future>
#include <string>

#include "rt/executor.h"

namespace ramiel::serve {

/// What a client gets back for one submitted sample.
struct Response {
  bool ok = false;
  /// Human-readable reason when !ok ("queue full", kernel error, ...).
  std::string error;
  /// Graph outputs keyed by value name (empty when !ok).
  TensorMap outputs;
  /// Submit-to-completion time as observed by the server.
  double latency_ms = 0.0;
  /// Size of the executor batch this request rode in (0 when rejected) and
  /// how many of those slots carried real requests (the run computed only
  /// those).
  int batch_slots = 0;
  int batch_real = 0;
};

/// One in-flight single-sample inference request.
struct Request {
  TensorMap inputs;
  std::promise<Response> promise;
  std::int64_t enqueue_ns = 0;
};

}  // namespace ramiel::serve

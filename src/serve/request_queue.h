// Bounded MPMC request queue with admission control.
//
// Client threads try_push() requests, consumers pop them. The queue is
// *bounded* — once depth hits capacity, try_push refuses instead of
// growing, so an overloaded server sheds load at the door (callers get an
// immediate rejection) rather than accumulating unbounded memory and
// unbounded tail latency. Consumers block; producers never do. The fleet's
// FleetQueue (fleet/admission.h) applies the same bound per tenant and
// shares this header's Request/Response types and PopResult.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

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
  /// how many of those slots carried real requests (rest were padding).
  int batch_slots = 0;
  int batch_real = 0;
};

/// One in-flight single-sample inference request.
struct Request {
  TensorMap inputs;
  std::promise<Response> promise;
  std::int64_t enqueue_ns = 0;
};

/// Bounded multi-producer multi-consumer queue of Requests.
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Admission control: enqueues and returns true iff there is room and the
  /// queue is open. On refusal the request is NOT consumed — the caller
  /// still owns it (and typically fulfils its promise with a rejection).
  bool try_push(Request&& request);

  /// Blocks until a request is available or the queue is closed and
  /// drained; returns false only in the latter case.
  bool pop(Request* out);

  enum class PopResult { kItem, kTimeout, kClosed };

  /// Like pop() but gives up after `timeout_ns`. kClosed means closed AND
  /// drained — remaining items are still delivered first.
  PopResult pop_for(Request* out, std::int64_t timeout_ns);

  /// Stops admission (try_push fails) and wakes consumers; already-queued
  /// requests remain poppable so shutdown can drain.
  void close();

  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<Request> items_;
  bool closed_ = false;
};

}  // namespace ramiel::serve

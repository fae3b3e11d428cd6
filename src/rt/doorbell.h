// A worker's wake-up line for the pinned placement of ParallelExecutor.
//
// A worker that finds none of its streams runnable snapshots epoch(), then
// wait()s; whoever releases one of its tasks (drops a dependency count to
// zero from another worker) ring()s it. The epoch makes the hand-off
// lossless: a ring that lands between the snapshot and the wait bumps the
// epoch, and wait() returns at once. The mutex/condvar pair is touched only
// while the owner is actually asleep, so a ring to a busy worker costs one
// atomic increment and one load.
//
// The steal placement parks its idle workers here too, with a bounded wait:
// a push rings lanes whose owner reports sleeping(), and a ring that misses
// a worker about to park costs at most one bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

#include "support/stopwatch.h"

namespace ramiel::rt {

class Doorbell {
 public:
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Wakes the owner if it waits on an epoch older than this ring.
  void ring() {
    // seq_cst on both sides (here and in wait()) is the Dekker handshake:
    // either this load sees the sleeper's flag, or the sleeper's predicate
    // sees the new epoch.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_.notify_one();
    }
  }

  /// Blocks until epoch() != seen, or for at most `bound` when one is given;
  /// returns the nanoseconds spent blocked.
  std::int64_t wait(std::uint64_t seen,
                    std::optional<std::chrono::microseconds> bound = {}) {
    if (epoch_.load(std::memory_order_acquire) != seen) return 0;
    const std::int64_t t0 = Stopwatch::now_ns();
    std::unique_lock<std::mutex> lk(mu_);
    sleeping_.store(true, std::memory_order_seq_cst);
    const auto rung = [&] {
      return epoch_.load(std::memory_order_seq_cst) != seen;
    };
    if (bound) {
      cv_.wait_for(lk, *bound, rung);
    } else {
      cv_.wait(lk, rung);
    }
    sleeping_.store(false, std::memory_order_relaxed);
    return Stopwatch::now_ns() - t0;
  }

  /// Whether the owner is blocked in wait() (or about to be).
  bool sleeping() const { return sleeping_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> sleeping_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace ramiel::rt

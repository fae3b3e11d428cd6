// Quota-aware admission and fair dequeue for the fleet.
//
// One FleetQueue fronts every tenant of a FleetServer. Admission is two
// gates in sequence, both accounted per tenant:
//
//   1. Token bucket — each tenant refills at quota_rps tokens/second up to
//      `burst`; an arrival without a token is rejected (kQuota). This is
//      the *rate* contract: a tenant offering 4x its quota is clipped at
//      the door no matter how empty the machine is.
//   2. Bounded queue — per tenant, beyond queue_depth waiting requests,
//      arrivals are shed (kFull) instead of accumulating unbounded latency;
//      a refused request stays with the caller.
//
// Dequeue is weighted fair with priority aging:
//
//   - Weighted fair: among non-empty tenants, pop from the one with the
//     smallest served/weight ratio (start-time fair queueing on request
//     counts). A tenant that is never chosen keeps a constant ratio while
//     every served tenant's grows without bound, so no backlogged tenant
//     starves — the scheduler provably returns to it.
//   - Aging: a head request that has waited longer than its tenant's
//     aging_ns outranks the fair order entirely (oldest aged head first),
//     bounding worst-case queueing delay for low-rate tenants under a
//     saturating neighbor; served-via-aging pops are counted per tenant
//     (the ramiel_fleet_aged_total metric). aging_ns <= 0 never ages
//     (batch-class tenants).
//
// Thread safety: every method is safe from any thread (one internal
// mutex). Time is passed in explicitly (Stopwatch::now_ns() in production,
// synthetic in tests) so quota enforcement is testable to the token.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.h"

namespace ramiel::serve::fleet {

/// Standard refill token bucket. Not thread-safe on its own — FleetQueue
/// guards its buckets with the queue mutex.
class TokenBucket {
 public:
  /// rate <= 0 means unlimited (try_acquire always succeeds).
  TokenBucket(double rate_per_s, double burst, std::int64_t now_ns);

  /// Takes one token if available (after refilling for elapsed time).
  bool try_acquire(std::int64_t now_ns);

  /// Tokens currently available (after refill); for tests and reporting.
  double available(std::int64_t now_ns);

  bool unlimited() const { return rate_ <= 0.0; }

 private:
  void refill(std::int64_t now_ns);

  double rate_;
  double burst_;
  double tokens_;
  std::int64_t last_ns_;
};

struct TenantOptions {
  double quota_rps = 0.0;  // <= 0 = unlimited
  double burst = 0.0;      // <= 0 = max(1, quota_rps)
  double weight = 1.0;     // must be > 0
  std::size_t queue_depth = 64;
  std::int64_t aging_ns = 50'000'000;  // <= 0 = never ages
};

/// Cumulative per-tenant accounting (all monotonic).
struct TenantCounters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_quota = 0;  // clipped by the token bucket
  std::uint64_t rejected_full = 0;   // clipped by the bounded queue
  std::uint64_t rejected_closed = 0; // tenant or fleet shut down
  std::uint64_t aged = 0;            // served via the aging fast path
};

class FleetQueue {
 public:
  explicit FleetQueue() = default;

  /// Registers a tenant; returns its index. Not safe concurrently with
  /// pop/push traffic for the SAME index before this returns (the fleet
  /// server publishes the index only after registration).
  int add_tenant(const std::string& name, const TenantOptions& options);

  /// Replaces a tenant's quota/weight/aging parameters in place (hot swap).
  /// The token bucket restarts at the new burst; served-credit is kept so
  /// the fair order is undisturbed.
  void update_tenant(int tenant, const TenantOptions& options,
                     std::int64_t now_ns);

  enum class Admit { kOk, kQuota, kFull, kClosed };

  /// Admission: quota gate then bounded-depth gate. On any rejection the
  /// request is NOT consumed (caller still owns the promise).
  Admit try_push(int tenant, Request&& request, std::int64_t now_ns);

  /// pop()'s wildcard source: the fair dequeue across every tenant.
  static constexpr int kAnyTenant = -1;

  enum class PopResult { kItem, kClosed };

  /// Blocks until a request is queued, then moves it to *out. *tenant names
  /// the source: one tenant (a partitioned dispatcher), or kAnyTenant for
  /// the weighted-fair + aging choice across all of them (the shared
  /// dispatcher), which *tenant then reports. kClosed once the queue, or
  /// that one tenant, is closed and drained: what was admitted is still
  /// delivered first. A push wakes its own tenant's waiters and the fair
  /// ones, never another tenant's.
  PopResult pop(int* tenant, Request* out);

  /// Moves up to `n` already-queued requests of `tenant` onto the back of
  /// *out, oldest first, and returns how many. Never blocks (batch fill).
  std::size_t take(int tenant, std::size_t n, std::vector<Request>* out);

  /// Stops admission for one tenant; its queued requests remain poppable.
  void close_tenant(int tenant);

  /// Stops admission everywhere and wakes all poppers (close-then-drain).
  void close();

  std::size_t tenant_depth(int tenant) const;  // waiting requests
  TenantCounters counters(int tenant) const;

 private:
  struct Tenant {
    std::string name;
    TenantOptions options;
    TokenBucket bucket{0.0, 0.0, 0};
    std::deque<Request> items;
    double served = 0.0;  // weighted-fair service count
    bool closed = false;
    TenantCounters counters;
    std::condition_variable not_empty;  // this tenant's pop() waiters
  };

  /// Picks the tenant to pop from (aging first, then weighted fair);
  /// -1 when everything is empty. Caller holds mu_.
  int select_locked(std::int64_t now_ns);
  /// Pops `t`'s head request. Caller holds mu_; `t` is non-empty.
  Request pop_front_locked(Tenant& t);

  mutable std::mutex mu_;
  std::condition_variable any_not_empty_;  // kAnyTenant pop() waiters
  /// Deque: grows without relocating, so a waiter's Tenant& stays valid
  /// while tenants are added (and a promise-holding Request, like the
  /// condition variable, is never copied on table growth).
  std::deque<Tenant> tenants_;
  std::size_t total_depth_ = 0;
  bool closed_ = false;
};

}  // namespace ramiel::serve::fleet

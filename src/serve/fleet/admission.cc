#include "serve/fleet/admission.h"

#include <algorithm>

#include "support/check.h"
#include "support/stopwatch.h"

namespace ramiel::serve::fleet {
namespace {

/// tenants[index], checked (const or not: the queue's tenant table).
template <typename Tenants>
auto& at_checked(Tenants& tenants, int index) {
  RAMIEL_CHECK(index >= 0 && index < static_cast<int>(tenants.size()),
               "no such tenant");
  return tenants[static_cast<std::size_t>(index)];
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_s, double burst, std::int64_t now_ns)
    : rate_(rate_per_s),
      burst_(burst > 0.0 ? burst : std::max(1.0, rate_per_s)),
      tokens_(burst_),
      last_ns_(now_ns) {}

void TokenBucket::refill(std::int64_t now_ns) {
  if (now_ns <= last_ns_) return;  // clock went backwards: no refill
  tokens_ = std::min(
      burst_, tokens_ + static_cast<double>(now_ns - last_ns_) / 1e9 * rate_);
  last_ns_ = now_ns;
}

bool TokenBucket::try_acquire(std::int64_t now_ns) {
  if (unlimited()) return true;
  refill(now_ns);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(std::int64_t now_ns) {
  if (unlimited()) return burst_;
  refill(now_ns);
  return tokens_;
}

int FleetQueue::add_tenant(const std::string& name,
                           const TenantOptions& options) {
  RAMIEL_CHECK(options.weight > 0.0, "tenant weight must be > 0");
  RAMIEL_CHECK(options.queue_depth >= 1, "tenant queue depth must be >= 1");
  std::lock_guard<std::mutex> lk(mu_);
  // A late-arriving tenant must not think it is owed all the service the
  // incumbents already consumed: start it at the current fair floor.
  double floor = 0.0;
  for (const Tenant& existing : tenants_) {
    floor = std::max(floor, existing.served / existing.options.weight);
  }
  Tenant& t = tenants_.emplace_back();
  t.name = name;
  t.options = options;
  t.bucket = TokenBucket(options.quota_rps, options.burst, /*now_ns=*/0);
  t.served = floor * options.weight;
  return static_cast<int>(tenants_.size()) - 1;
}

void FleetQueue::update_tenant(int tenant, const TenantOptions& options,
                               std::int64_t now_ns) {
  RAMIEL_CHECK(options.weight > 0.0, "tenant weight must be > 0");
  RAMIEL_CHECK(options.queue_depth >= 1, "tenant queue depth must be >= 1");
  std::lock_guard<std::mutex> lk(mu_);
  Tenant& t = at_checked(tenants_, tenant);
  // Rescale the kept service credit so the tenant's *normalized* position
  // in the fair order is unchanged by a weight change.
  t.served = t.served / t.options.weight * options.weight;
  t.options = options;
  t.bucket = TokenBucket(options.quota_rps, options.burst, now_ns);
}

FleetQueue::Admit FleetQueue::try_push(int tenant, Request&& request,
                                       std::int64_t now_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  Tenant& t = at_checked(tenants_, tenant);
  if (closed_ || t.closed) {
    ++t.counters.rejected_closed;
    return Admit::kClosed;
  }
  if (!t.bucket.try_acquire(now_ns)) {
    ++t.counters.rejected_quota;
    return Admit::kQuota;
  }
  if (t.items.size() >= t.options.queue_depth) {
    ++t.counters.rejected_full;
    return Admit::kFull;
  }
  t.items.push_back(std::move(request));
  ++t.counters.admitted;
  ++total_depth_;
  // Wake this tenant's dispatcher and the fair one, never another tenant's.
  t.not_empty.notify_one();
  any_not_empty_.notify_one();
  return Admit::kOk;
}

int FleetQueue::select_locked(std::int64_t now_ns) {
  // Aging pass: the oldest head request past its tenant's aging threshold
  // wins outright (bounds worst-case queueing delay under skewed load).
  int aged = -1;
  std::int64_t aged_enqueue = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (t.items.empty() || t.options.aging_ns <= 0) continue;
    const std::int64_t enqueue = t.items.front().enqueue_ns;
    if (now_ns - enqueue < t.options.aging_ns) continue;
    if (aged < 0 || enqueue < aged_enqueue) {
      aged = static_cast<int>(i);
      aged_enqueue = enqueue;
    }
  }
  if (aged >= 0) {
    ++tenants_[static_cast<std::size_t>(aged)].counters.aged;
    return aged;
  }
  // Weighted-fair pass: smallest normalized service among the backlogged.
  int best = -1;
  double best_ratio = 0.0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (t.items.empty()) continue;
    const double ratio = t.served / t.options.weight;
    if (best < 0 || ratio < best_ratio) {
      best = static_cast<int>(i);
      best_ratio = ratio;
    }
  }
  return best;
}

Request FleetQueue::pop_front_locked(Tenant& t) {
  Request r = std::move(t.items.front());
  t.items.pop_front();
  t.served += 1.0;
  --total_depth_;
  return r;
}

FleetQueue::PopResult FleetQueue::pop(int* tenant, Request* out) {
  std::unique_lock<std::mutex> lk(mu_);
  if (*tenant == kAnyTenant) {
    any_not_empty_.wait(lk, [&] { return total_depth_ > 0 || closed_; });
    if (total_depth_ == 0) return PopResult::kClosed;
    // Same steady clock Request::enqueue_ns was stamped with.
    *tenant = select_locked(Stopwatch::now_ns());
  } else {
    Tenant& t = at_checked(tenants_, *tenant);
    t.not_empty.wait(
        lk, [&] { return !t.items.empty() || t.closed || closed_; });
    if (t.items.empty()) return PopResult::kClosed;
  }
  *out = pop_front_locked(tenants_[static_cast<std::size_t>(*tenant)]);
  return PopResult::kItem;
}

std::size_t FleetQueue::take(int tenant, std::size_t n,
                             std::vector<Request>* out) {
  std::lock_guard<std::mutex> lk(mu_);
  Tenant& t = at_checked(tenants_, tenant);
  std::size_t taken = 0;
  for (; taken < n && !t.items.empty(); ++taken) {
    out->push_back(pop_front_locked(t));
  }
  return taken;
}

void FleetQueue::close_tenant(int tenant) {
  std::lock_guard<std::mutex> lk(mu_);
  Tenant& t = at_checked(tenants_, tenant);
  t.closed = true;
  t.not_empty.notify_all();
}

void FleetQueue::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  any_not_empty_.notify_all();
  for (Tenant& t : tenants_) t.not_empty.notify_all();
}

std::size_t FleetQueue::tenant_depth(int tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  return at_checked(tenants_, tenant).items.size();
}

TenantCounters FleetQueue::counters(int tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  return at_checked(tenants_, tenant).counters;
}

}  // namespace ramiel::serve::fleet

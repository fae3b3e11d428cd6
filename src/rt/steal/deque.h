// Chase–Lev work-stealing deque, specialized for the steal executor.
//
// Each worker owns one deque of task handles. The owner pushes and pops at
// the bottom (LIFO — a just-unlocked successor usually has its inputs hot in
// cache); idle thieves steal from the top (FIFO — they take the oldest, most
// likely-to-unlock-more work, the opposite end from where the owner is
// active, so owner and thief only contend on the final element).
//
// The deque outlives any one run (several runs may be in flight on one
// executor), so its ring grows on demand: the owner copies the live range
// into a ring twice the size and publishes it. Retired rings stay allocated
// until the deque dies, so a thief still reading the old ring reads the same
// item the owner copied — the dynamic circular deque of Chase and Lev (SPAA
// 2005). Growth is amortized: a ring only doubles, and steady-state runs
// never grow it again.
//
// Top and bottom are sequentially consistent. The pop/steal race on the last
// element is the classic Dekker pattern; seq_cst on the two counters makes
// it obviously correct (and TSan-clean) and costs nothing at task
// granularity, where one pop amortizes a whole kernel call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace ramiel::steal {

/// `T` is the task handle: trivially copyable and lock-free as an atomic
/// (a task id or a pointer).
template <typename T = std::int32_t>
class WorkDeque {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::atomic<T>::is_always_lock_free);

 public:
  WorkDeque() {
    rings_.push_back(std::make_unique<Ring>(kInitialCapacity));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }

  /// Owner only. Grows the ring when it is full.
  void push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t >= ring->capacity()) ring = grow(ring, t, b);
    ring->put(b, item);
    // Publish the slot before the new bottom; a thief that acquires the new
    // bottom therefore sees the slot contents.
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only: takes the most recently pushed item. Returns false when
  /// the deque is empty.
  bool pop(T* out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      *out = ring->get(b);
      if (t == b) {
        // Last element: race the thieves for it via top.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          // A thief won; restore bottom to the (now empty) canonical state.
          bottom_.store(b + 1, std::memory_order_seq_cst);
          return false;
        }
        bottom_.store(b + 1, std::memory_order_seq_cst);
      }
      return true;
    }
    // Already empty; undo the speculative decrement.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return false;
  }

  /// Any thief: takes the oldest item. Returns false when empty or when it
  /// lost the race for the contended element (callers just move on to the
  /// next victim).
  bool steal(T* out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    const T item = ring_.load(std::memory_order_acquire)->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    *out = item;
    return true;
  }

  /// Racy size estimate (sleep/wake heuristics only).
  bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_acquire) >
           top_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::int64_t kInitialCapacity = 64;

  class Ring {
   public:
    explicit Ring(std::int64_t capacity)
        : capacity_(capacity),
          items_(std::make_unique<std::atomic<T>[]>(
              static_cast<std::size_t>(capacity))) {}
    std::int64_t capacity() const { return capacity_; }
    T get(std::int64_t i) const {
      return items_[static_cast<std::size_t>(i & (capacity_ - 1))].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T item) {
      items_[static_cast<std::size_t>(i & (capacity_ - 1))].store(
          item, std::memory_order_relaxed);
    }

   private:
    std::int64_t capacity_;  // a power of two
    std::unique_ptr<std::atomic<T>[]> items_;
  };

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Ring>(old->capacity() * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    Ring* ring = bigger.get();
    rings_.push_back(std::move(bigger));
    ring_.store(ring, std::memory_order_release);
    return ring;
  }

  /// Every ring this deque ever used (owner only); the last is current.
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<Ring*> ring_{nullptr};
  // Padded apart: top is hammered by thieves, bottom by the owner.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

}  // namespace ramiel::steal

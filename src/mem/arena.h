// Arena runtime for the static memory plan.
//
// MemArena is one worker's persistent block, owned by the executor across
// run() calls: its planned-slot block is sized to the worker's planned peak
// (ParallelExecutor keeps one per home worker of each hosted program), and
// its separate scratch block backs kernel pack/im2col buffers (the executor
// keeps one arena per worker thread for that). SlotSink is the per-node AllocSink the executor installs around a
// kernel call: it is primed with the arena addresses of the node's planned
// outputs and hands them to Tensor(Shape) by element count, so kernels
// write straight into their planned slots without knowing the planner
// exists. Allocations the sink cannot match (dynamic temporaries, shape
// mismatches) silently fall through to the heap — the plan is an
// optimization, never a correctness requirement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ramiel::mem {

/// A 64-byte-aligned scratch block that persists across runs and grows
/// monotonically on demand.
class MemArena {
 public:
  MemArena() = default;
  ~MemArena();

  MemArena(MemArena&& o) noexcept;
  MemArena& operator=(MemArena&& o) noexcept;
  MemArena(const MemArena&) = delete;
  MemArena& operator=(const MemArena&) = delete;

  /// Grows the block to at least `bytes`. Returns true when an existing
  /// nonempty block had to be reallocated (a "grow" event — planned sizes
  /// should make this rare). Must only be called while no tensor points
  /// into the arena (the executor calls it between runs, workers parked).
  bool ensure(std::size_t bytes);

  float* data() { return data_; }
  std::size_t capacity_bytes() const { return capacity_; }

  /// Grows the kernel-scratch block (separate from the planned-slot block:
  /// scratch never backs a Tensor and its lifetime is one kernel call) to
  /// at least `bytes`. Only safe while no scratch is outstanding — SlotSink
  /// guarantees that by only growing at bump offset zero.
  bool ensure_scratch(std::size_t bytes);

  float* scratch_data() { return scratch_; }
  std::size_t scratch_capacity_bytes() const { return scratch_capacity_; }

 private:
  void release();

  float* data_ = nullptr;
  std::size_t capacity_ = 0;
  float* scratch_ = nullptr;
  std::size_t scratch_capacity_ = 0;
};

/// AllocSink primed with one node's planned output slots. Matching is by
/// exact element count and dtype; each slot satisfies at most one
/// allocation. Slots
/// not marked in-place are zero-filled on take (the heap path hands out
/// zero-initialized vectors, and matmul/conv accumulate into their output),
/// while in-place slots still hold the dying input the kernel is about to
/// read — they additionally only match the *first* allocation of the node,
/// since a temporary stealing a live input's bytes would corrupt it.
class SlotSink final : public AllocSink {
 public:
  void clear() {
    slots_.clear();
    taken_ = 0;
    allocs_seen_ = 0;
    scratch_off_ = 0;
  }

  void add(float* ptr, std::size_t numel, DType dtype, bool in_place) {
    slots_.push_back(Slot{ptr, numel, dtype, in_place, false});
  }

  bool empty() const { return slots_.empty(); }

  /// Number of allocations served from the arena since the last clear().
  int taken() const { return taken_; }

  float* take(std::size_t numel, DType dtype) override;

  /// Binds the arena whose scratch block serves take_scratch(). Unbound
  /// (the default), every scratch request declines to the heap.
  void set_scratch_arena(MemArena* arena) { scratch_arena_ = arena; }

  /// Bump-allocates kernel scratch from the arena's scratch block. The
  /// block may only grow while empty (offset zero) — a grow with scratch
  /// outstanding would dangle earlier pointers — so nested requests that
  /// do not fit decline to the heap instead.
  float* take_scratch(std::size_t numel) override;
  void release_scratch(float* ptr, std::size_t numel) override;

 private:
  struct Slot {
    float* ptr;
    std::size_t numel;
    DType dtype;
    bool in_place;
    bool used;
  };
  std::vector<Slot> slots_;
  int taken_ = 0;
  int allocs_seen_ = 0;
  MemArena* scratch_arena_ = nullptr;
  std::size_t scratch_off_ = 0;  // floats
};

/// Installs a sink on the current thread for the lifetime of the scope,
/// restoring the previous sink (if any) on exit.
class ScopedAllocSink {
 public:
  explicit ScopedAllocSink(AllocSink* sink)
      : prev_(set_thread_alloc_sink(sink)) {}
  ~ScopedAllocSink() { set_thread_alloc_sink(prev_); }

  ScopedAllocSink(const ScopedAllocSink&) = delete;
  ScopedAllocSink& operator=(const ScopedAllocSink&) = delete;

 private:
  AllocSink* prev_;
};

}  // namespace ramiel::mem

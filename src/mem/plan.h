// Static memory plan for cluster execution.
//
// After CP+DCE and clustering the dataflow graph is fully static: every
// intermediate tensor's shape, producer and consumers are known at compile
// time, and each (worker, sample) stream executes in one fixed program
// order. That makes ahead-of-time buffer planning possible — the same move
// ONNX-MLIR makes when lowering to pre-planned buffers — so the serving hot
// path stops paying a heap allocation per intermediate tensor per request.
//
// The plan assigns every locally produced value of a stream a byte range
// [offset, offset + bytes) inside its worker's persistent arena, such that
// ranges of values with overlapping lifetimes never intersect. Workers with
// batch > 1 interleave their per-sample streams nondeterministically (a
// stream advances whenever its inputs are ready), so samples get disjoint
// arena regions: only lifetimes *within* one stream are ordered by program
// order and may share storage.
//
// Values excluded from the plan (they keep refcounted heap storage):
//   - graph outputs, and anything aliasing one — results escape the run;
//   - constants and graph inputs — not produced by kernels;
//   - zero-sized values.
// Values sent to another worker stay planned but their lifetime extends to
// the end of the run (kStepForever): the receiver reads the sender's slot
// from the executor's shared value table at any point before the run joins.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace ramiel::mem {

/// Arena slot alignment in bytes (one cache line).
inline constexpr std::int64_t kSlotAlign = 64;

/// last_step value for slots that must survive until the run joins
/// (cross-worker sends: the receiving cluster reads the slot from the shared
/// value table at an unknowable point in its own stream).
inline constexpr int kStepForever = std::numeric_limits<int>::max();

/// `bytes` rounded up to the slot alignment.
inline std::int64_t aligned_size(std::int64_t bytes) {
  return (bytes + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
}

/// One planned storage slot within a stream's arena region.
struct ValueSlot {
  ValueId value = -1;        // alias-class root (the kernel-allocated value)
  std::int64_t offset = 0;   // bytes from the stream region base (aligned)
  std::int64_t bytes = 0;    // aligned capacity of the slot
  std::int64_t numel = 0;    // exact element count (what the kernel asks for)
  DType dtype = DType::kF32; // storage dtype (slot matching is numel+dtype)
  int def_step = 0;          // stream step producing the value
  int last_step = 0;         // last step reading it; kStepForever when sent
  bool in_place = false;     // inherited the slot of an input dying at def
  ValueId in_place_src = -1; // the value whose slot it inherited
};

/// Slot table for one (worker, sample) stream.
struct StreamPlan {
  std::vector<ValueSlot> slots;              // ordered by def_step
  std::unordered_map<ValueId, int> slot_of;  // root value -> index into slots
  std::int64_t peak_bytes = 0;   // region capacity (high-water of the packer)
  std::int64_t naive_bytes = 0;  // sum of aligned sizes = fresh-alloc cost
  int in_place_count = 0;
};

/// All streams of one worker plus their region layout inside its arena.
struct WorkerPlan {
  std::vector<StreamPlan> streams;        // one per batch sample
  std::vector<std::int64_t> stream_base;  // region base offset per sample
  std::int64_t arena_bytes = 0;           // total arena capacity (sum of peaks)
  std::int64_t naive_bytes = 0;
  int in_place_count = 0;
};

/// The complete compile-time memory plan for a hyperclustered model.
struct MemPlan {
  std::vector<WorkerPlan> workers;
  std::int64_t peak_bytes = 0;   // sum of per-worker arena capacities
  std::int64_t naive_bytes = 0;  // what per-run fresh allocation would cost
  int in_place_count = 0;

  bool empty() const { return workers.empty(); }

  /// Fraction of naive bytes the plan avoids holding live at once
  /// (0 when nothing was planned).
  double reuse_ratio() const {
    return naive_bytes <= 0
               ? 0.0
               : 1.0 - static_cast<double>(peak_bytes) /
                           static_cast<double>(naive_bytes);
  }
};

}  // namespace ramiel::mem

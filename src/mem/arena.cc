#include "mem/arena.h"

#include <cstring>
#include <deque>
#include <mutex>
#include <new>
#include <utility>

#include "mem/plan.h"

namespace ramiel::mem {
namespace {

// Planned-slot blocks released by destroyed (or grown) arenas, kept for the
// next arena that asks for the same size. An executor re-made for the same
// plan — a fleet swap, a benchmark's repeated set-up — then runs on the
// resident pages its predecessor left. Without this, each re-made
// executor's blocks landed higher in the heap than the last one's (the
// free space they left was partly taken by the next set-up's graph), until
// one spilled into fresh pages: perfbench's offline_bert read ~5 MB more
// peak RSS in about half of its runs. Oldest blocks are freed first once
// the kept bytes pass kMaxSpareBytes.
constexpr std::size_t kMaxSpareBytes = std::size_t{64} << 20;

struct SpareBlocks {
  std::mutex mu;
  std::deque<std::pair<float*, std::size_t>> blocks;  // oldest first
  std::size_t bytes = 0;
};

SpareBlocks& spares() {
  static SpareBlocks* s = new SpareBlocks();
  return *s;
}

float* take_block(std::size_t bytes) {
  SpareBlocks& s = spares();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (auto it = s.blocks.begin(); it != s.blocks.end(); ++it) {
      if (it->second == bytes) {
        float* p = it->first;
        s.blocks.erase(it);
        s.bytes -= bytes;
        return p;
      }
    }
  }
  return static_cast<float*>(
      ::operator new(bytes, std::align_val_t{kSlotAlign}));
}

void give_block(float* p, std::size_t bytes) {
  SpareBlocks& s = spares();
  std::lock_guard<std::mutex> lk(s.mu);
  s.blocks.emplace_back(p, bytes);
  s.bytes += bytes;
  while (s.bytes > kMaxSpareBytes) {
    ::operator delete(s.blocks.front().first, std::align_val_t{kSlotAlign});
    s.bytes -= s.blocks.front().second;
    s.blocks.pop_front();
  }
}

}  // namespace

MemArena::~MemArena() { release(); }

MemArena::MemArena(MemArena&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      capacity_(std::exchange(o.capacity_, 0)),
      scratch_(std::exchange(o.scratch_, nullptr)),
      scratch_capacity_(std::exchange(o.scratch_capacity_, 0)) {}

MemArena& MemArena::operator=(MemArena&& o) noexcept {
  if (this != &o) {
    release();
    data_ = std::exchange(o.data_, nullptr);
    capacity_ = std::exchange(o.capacity_, 0);
    scratch_ = std::exchange(o.scratch_, nullptr);
    scratch_capacity_ = std::exchange(o.scratch_capacity_, 0);
  }
  return *this;
}

void MemArena::release() {
  if (data_ != nullptr) {
    give_block(data_, capacity_);
    data_ = nullptr;
    capacity_ = 0;
  }
  if (scratch_ != nullptr) {
    ::operator delete(scratch_, std::align_val_t{kSlotAlign});
    scratch_ = nullptr;
    scratch_capacity_ = 0;
  }
}

bool MemArena::ensure(std::size_t bytes) {
  if (bytes <= capacity_) return false;
  const bool grew = data_ != nullptr;
  if (data_ != nullptr) {
    give_block(data_, capacity_);
    data_ = nullptr;
    capacity_ = 0;
  }
  data_ = take_block(bytes);
  capacity_ = bytes;
  return grew;
}

bool MemArena::ensure_scratch(std::size_t bytes) {
  if (bytes <= scratch_capacity_) return false;
  const bool grew = scratch_ != nullptr;
  if (scratch_ != nullptr) {
    ::operator delete(scratch_, std::align_val_t{kSlotAlign});
    scratch_ = nullptr;
    scratch_capacity_ = 0;
  }
  scratch_ = static_cast<float*>(
      ::operator new(bytes, std::align_val_t{kSlotAlign}));
  scratch_capacity_ = bytes;
  return grew;
}

namespace {

// Keep successive scratch sub-buffers cache-line aligned.
std::size_t round_up_floats(std::size_t numel) {
  const std::size_t per_line = kSlotAlign / sizeof(float);
  return (numel + per_line - 1) / per_line * per_line;
}

}  // namespace

float* SlotSink::take_scratch(std::size_t numel) {
  if (scratch_arena_ == nullptr || numel == 0) return nullptr;
  const std::size_t rounded = round_up_floats(numel);
  const std::size_t need_bytes = (scratch_off_ + rounded) * sizeof(float);
  if (need_bytes > scratch_arena_->scratch_capacity_bytes()) {
    // Growing is only safe with no scratch outstanding; otherwise the
    // reallocation would dangle the earlier sub-buffers.
    if (scratch_off_ != 0) return nullptr;
    scratch_arena_->ensure_scratch(need_bytes);
  }
  float* p = scratch_arena_->scratch_data() + scratch_off_;
  scratch_off_ += rounded;
  return p;
}

void SlotSink::release_scratch(float* ptr, std::size_t numel) {
  if (scratch_arena_ == nullptr) return;
  const std::size_t rounded = round_up_floats(numel);
  // LIFO release: only the most recent take can be returned. Anything else
  // indicates a heap buffer or out-of-order release; ignore it — the bump
  // offset resets with the next SlotSink::clear() anyway.
  if (rounded <= scratch_off_ &&
      ptr == scratch_arena_->scratch_data() + (scratch_off_ - rounded)) {
    scratch_off_ -= rounded;
  }
}

float* SlotSink::take(std::size_t numel, DType dtype) {
  const int alloc_index = allocs_seen_++;
  for (Slot& s : slots_) {
    // Matching requires the planned dtype too: an f32 temporary allocated
    // mid-kernel must never land in a slot sized for a half-width output.
    if (s.used || s.numel != numel || s.dtype != dtype) continue;
    if (s.in_place && alloc_index != 0) continue;
    s.used = true;
    ++taken_;
    if (!s.in_place) std::memset(s.ptr, 0, numel * dtype_size(dtype));
    return s.ptr;
  }
  return nullptr;
}

}  // namespace ramiel::mem

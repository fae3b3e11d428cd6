// Dense tensor with shared immutable storage and a storage DType.
//
// Tensors are value types: copying a Tensor copies only the shape and a
// reference to the underlying buffer, which makes passing tensors through
// cross-cluster channels cheap (this mirrors how the paper's generated
// Python passes torch tensors through multiprocessing queues). Storage is
// treated as immutable once a tensor has been published to another cluster;
// kernels always allocate fresh outputs.
//
// Compute is fp32 everywhere; the DType (support/dtype.h) describes only
// how elements are *stored*. f32 tensors expose float spans via data();
// f16/bf16/i8 tensors expose raw byte storage (u16_data()/i8_data()) and
// convert at kernel boundaries (cast()/dequantize(), or convert-on-pack
// inside the GEMM drivers). i8 tensors additionally carry per-channel
// quantization metadata (scales + quantized-weight channel sums) used by
// the quantized GEMM epilogue.
//
// Storage comes in two modes:
//   - owning: a refcounted heap buffer (the default; lifetime managed by
//     the last Tensor referencing it);
//   - non-owning: a raw view into externally managed memory — the static
//     memory planner's per-worker arenas (src/mem/). The arena owner
//     guarantees the slot outlives every reader; such tensors must never
//     escape the run that produced them (the executor clones them back to
//     owning storage at the result boundary).
//
// While an AllocSink is installed on the calling thread, Tensor(Shape)
// offers the allocation to the sink first; this is how kernels write into
// planner-assigned arena slots without knowing about the planner at all.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/dtype.h"
#include "support/rng.h"
#include "tensor/shape.h"

namespace ramiel {

/// Thread-local allocation interceptor installed by the memory-planner
/// runtime (src/mem/): while installed, Tensor(Shape) asks the sink for
/// backing storage before falling back to a fresh heap buffer.
class AllocSink {
 public:
  virtual ~AllocSink() = default;

  /// Returns a buffer holding exactly `numel` elements of `dtype` (already
  /// zeroed, matching the heap path's zero-initialization, unless the slot
  /// is an in-place destination), or nullptr to decline and let the tensor
  /// heap-allocate. The pointer is float-aligned regardless of dtype (slots
  /// are 64-byte aligned).
  virtual float* take(std::size_t numel, DType dtype) = 0;

  /// Transient kernel workspace (im2col panels, GEMM pack buffers): never
  /// backs a Tensor, never zeroed, must be released in LIFO order before
  /// the kernel returns. Default declines, sending callers to the heap —
  /// arena scratch is an optimization, never a correctness requirement.
  virtual float* take_scratch(std::size_t numel) {
    (void)numel;
    return nullptr;
  }
  virtual void release_scratch(float* ptr, std::size_t numel) {
    (void)ptr;
    (void)numel;
  }
};

/// Installs `sink` for the calling thread (nullptr uninstalls); returns the
/// previously installed sink so scopes can nest.
AllocSink* set_thread_alloc_sink(AllocSink* sink);

/// The sink currently installed on the calling thread (nullptr if none).
/// Kernels use this to request scratch workspace.
AllocSink* thread_alloc_sink();

/// Per-channel symmetric quantization metadata carried by i8 tensors.
/// Channel c covers the slab `axis == c` of the tensor; dequantized value
/// = scales[c] * q. sums[c] is the integer sum of the channel's quantized
/// elements, precomputed so the quantized GEMM can apply the asymmetric
/// activation zero-point correction without re-reading the weights.
struct QuantMeta {
  int axis = 0;
  std::vector<float> scales;
  std::vector<std::int32_t> sums;
};

/// Dense row-major tensor.
class Tensor {
 public:
  /// Empty tensor: shape [0], zero elements, zero capacity — no storage is
  /// allocated. (Use Tensor::scalar for a rank-0 one-element tensor.)
  Tensor();

  /// Allocates a zero-initialized tensor of `shape` and `dtype` (or adopts
  /// a slot from the thread's AllocSink when one is installed).
  explicit Tensor(Shape shape, DType dtype = DType::kF32);

  /// Wraps existing f32 data (copied) with `shape`. Sizes must agree.
  Tensor(Shape shape, std::vector<float> data);

  /// Non-owning f32 view over externally managed memory (`size` floats).
  /// The caller guarantees the memory outlives every tensor sharing it.
  static Tensor from_external(Shape shape, float* data, std::size_t size);

  /// All-zeros f32 tensor.
  static Tensor zeros(Shape shape);

  /// f32 tensor filled with `value`.
  static Tensor full(Shape shape, float value);

  /// Scalar (rank-0) f32 tensor.
  static Tensor scalar(float value);

  /// 1-D f32 tensor from values.
  static Tensor vec(std::vector<float> values);

  /// Uniform random values in [lo, hi), drawn from `rng` (deterministic).
  static Tensor random(Shape shape, Rng& rng, float lo = -1.0f, float hi = 1.0f);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return shape_.numel(); }
  DType dtype() const { return dtype_; }

  /// Storage footprint in bytes (numel x element size).
  std::int64_t byte_size() const {
    return static_cast<std::int64_t>(size_) *
           static_cast<std::int64_t>(dtype_size(dtype_));
  }

  /// Read-only view of all elements. f32 tensors only — low-precision
  /// storage must go through cast()/dequantize() or the typed raw views.
  std::span<const float> data() const {
    if (dtype_ != DType::kF32) fail_dtype_access("data");
    return {ptr_, size_};
  }

  /// Mutable view. Only valid before the tensor is shared (use during
  /// construction inside kernels). f32 tensors only.
  std::span<float> mutable_data() {
    if (dtype_ != DType::kF32) fail_dtype_access("mutable_data");
    return {ptr_, size_};
  }

  /// Element access by flat index (f32 tensors only).
  float at(std::int64_t i) const {
    if (dtype_ != DType::kF32) fail_dtype_access("at");
    return ptr_[static_cast<std::size_t>(i)];
  }

  /// Raw storage (any dtype), element count numel(), width dtype_size().
  const void* raw() const { return ptr_; }
  void* raw_mut() { return ptr_; }

  /// Typed raw views for the half-width and i8 storage formats.
  std::span<const std::uint16_t> u16_data() const;
  std::span<std::uint16_t> u16_mutable_data();
  std::span<const std::int8_t> i8_data() const;
  std::span<std::int8_t> i8_mutable_data();

  /// Per-channel quantization metadata (i8 tensors; null otherwise).
  const QuantMeta* quant() const { return quant_.get(); }

  /// Converts to `dtype` storage (f32 <-> f16/bf16; identity returns a
  /// shallow copy). The result consults the thread's AllocSink, so a cast
  /// at the eval boundary lands in the value's planned arena slot. i8 is
  /// not a cast target (it needs scales — see quantize_per_channel) and
  /// i8 sources must use dequantize().
  Tensor cast(DType dtype) const;

  /// Per-channel symmetric i8 quantization along `axis`: channel scale
  /// = absmax/127 (0 for an all-zero channel, which dequantizes exactly).
  /// Returns an i8 tensor carrying QuantMeta. f32 sources only.
  Tensor quantize_per_channel(int axis) const;

  /// Expands i8 storage back to f32 through the per-channel scales.
  Tensor dequantize() const;

  /// Reinterprets the buffer under a new shape with equal numel (zero-copy).
  Tensor reshaped(Shape new_shape) const;

  /// True if both tensors share the same storage buffer.
  bool shares_storage_with(const Tensor& o) const {
    return ptr_ != nullptr && ptr_ == o.ptr_;
  }

  /// True when this tensor's storage is refcounted (or empty); false for
  /// non-owning views into arena memory, which must not outlive their run.
  bool owns_storage() const { return owner_ != nullptr || ptr_ == nullptr; }

  /// Deep copy with fresh owning storage (never consults the AllocSink).
  Tensor clone() const;

 private:
  [[noreturn]] static void fail_dtype_access(const char* what);

  Shape shape_;
  DType dtype_ = DType::kF32;
  // Owner capacity is measured in floats (ceil(bytes/4)) so one refcounted
  // buffer type backs every dtype; ptr_ stays float-aligned, which any
  // narrower element also accepts. Null in non-owning mode.
  std::shared_ptr<std::vector<float>> owner_;
  float* ptr_ = nullptr;
  std::size_t size_ = 0;  // element count (== numel for non-empty tensors)
  std::shared_ptr<const QuantMeta> quant_;  // i8 only
};

/// True when shapes match and elements differ by at most `atol` + `rtol`*|b|.
/// A NaN, or an unmatched infinity, is never close. f32 tensors only
/// (compare low-precision tensors after cast/dequantize).
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-5f);

}  // namespace ramiel

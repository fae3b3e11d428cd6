#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {

namespace {
thread_local AllocSink* t_alloc_sink = nullptr;

/// Owner-vector length (in floats) that covers `numel` elements of `dtype`.
std::size_t owner_floats(std::size_t numel, DType dtype) {
  const std::size_t bytes = numel * dtype_size(dtype);
  return (bytes + sizeof(float) - 1) / sizeof(float);
}
}  // namespace

AllocSink* set_thread_alloc_sink(AllocSink* sink) {
  AllocSink* prev = t_alloc_sink;
  t_alloc_sink = sink;
  return prev;
}

AllocSink* thread_alloc_sink() { return t_alloc_sink; }

void Tensor::fail_dtype_access(const char* what) {
  throw Error(str_cat("Tensor::", what,
                      " requires f32 storage; convert through "
                      "cast()/dequantize() first"));
}

Tensor::Tensor() : shape_(Shape{0}) {}

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  const auto n = static_cast<std::size_t>(shape_.numel());
  if (t_alloc_sink != nullptr) {
    if (float* slot = t_alloc_sink->take(n, dtype_)) {
      ptr_ = slot;
      size_ = n;
      return;
    }
  }
  owner_ = std::make_shared<std::vector<float>>(owner_floats(n, dtype_));
  ptr_ = owner_->data();
  size_ = n;
}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)) {
  RAMIEL_CHECK(static_cast<std::int64_t>(data.size()) == shape_.numel(),
               str_cat("data size ", data.size(), " does not match shape ",
                       shape_.to_string()));
  owner_ = std::make_shared<std::vector<float>>(std::move(data));
  ptr_ = owner_->data();
  size_ = owner_->size();
}

Tensor Tensor::from_external(Shape shape, float* data, std::size_t size) {
  RAMIEL_CHECK(static_cast<std::int64_t>(size) == shape.numel(),
               str_cat("external buffer of ", size,
                       " floats does not match shape ", shape.to_string()));
  Tensor t;
  t.shape_ = std::move(shape);
  t.ptr_ = data;
  t.size_ = size;
  return t;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  for (float& x : t.mutable_data()) x = value;
  return t;
}

Tensor Tensor::scalar(float value) {
  Tensor t{Shape{}};
  t.mutable_data()[0] = value;
  return t;
}

Tensor Tensor::vec(std::vector<float> values) {
  Shape s{static_cast<std::int64_t>(values.size())};
  return Tensor(std::move(s), std::move(values));
}

Tensor Tensor::random(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& x : t.mutable_data()) x = rng.next_float(lo, hi);
  return t;
}

std::span<const std::uint16_t> Tensor::u16_data() const {
  RAMIEL_CHECK(dtype_ == DType::kF16 || dtype_ == DType::kBF16,
               "u16_data requires f16/bf16 storage");
  return {reinterpret_cast<const std::uint16_t*>(ptr_), size_};
}

std::span<std::uint16_t> Tensor::u16_mutable_data() {
  RAMIEL_CHECK(dtype_ == DType::kF16 || dtype_ == DType::kBF16,
               "u16_mutable_data requires f16/bf16 storage");
  return {reinterpret_cast<std::uint16_t*>(ptr_), size_};
}

std::span<const std::int8_t> Tensor::i8_data() const {
  RAMIEL_CHECK(dtype_ == DType::kI8, "i8_data requires i8 storage");
  return {reinterpret_cast<const std::int8_t*>(ptr_), size_};
}

std::span<std::int8_t> Tensor::i8_mutable_data() {
  RAMIEL_CHECK(dtype_ == DType::kI8, "i8_mutable_data requires i8 storage");
  return {reinterpret_cast<std::int8_t*>(ptr_), size_};
}

Tensor Tensor::cast(DType dtype) const {
  if (dtype == dtype_) return *this;
  RAMIEL_CHECK(dtype != DType::kI8 && dtype_ != DType::kI8,
               "i8 conversions go through quantize_per_channel/dequantize");
  Tensor out(shape_, dtype);
  if (size_ == 0) return out;
  if (dtype_ == DType::kF32) {
    convert_f32_to_storage(ptr_, out.ptr_, dtype, size_);
  } else if (dtype == DType::kF32) {
    convert_storage_to_f32(ptr_, dtype_, out.ptr_, size_);
  } else {
    // f16 <-> bf16: bounce through f32 (no direct use today, kept correct).
    std::vector<float> tmp(size_);
    convert_storage_to_f32(ptr_, dtype_, tmp.data(), size_);
    convert_f32_to_storage(tmp.data(), out.ptr_, dtype, size_);
  }
  return out;
}

Tensor Tensor::quantize_per_channel(int axis) const {
  RAMIEL_CHECK(dtype_ == DType::kF32,
               "quantize_per_channel requires an f32 source");
  const int rank = shape_.rank();
  RAMIEL_CHECK(rank >= 1, "quantize_per_channel requires rank >= 1");
  const int ax = shape_.normalize_axis(axis);
  const std::int64_t channels = shape_.dim(ax);
  std::int64_t inner = 1;
  for (int d = ax + 1; d < rank; ++d) inner *= shape_.dim(d);
  std::int64_t outer = 1;
  for (int d = 0; d < ax; ++d) outer *= shape_.dim(d);

  auto meta = std::make_shared<QuantMeta>();
  meta->axis = ax;
  meta->scales.assign(static_cast<std::size_t>(channels), 0.0f);
  meta->sums.assign(static_cast<std::size_t>(channels), 0);

  // Per-channel absmax -> symmetric scale absmax/127. An all-zero channel
  // keeps scale 0: every element quantizes to 0 and dequantizes exactly.
  for (std::int64_t c = 0; c < channels; ++c) {
    float amax = 0.0f;
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = ptr_ + (o * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        amax = std::max(amax, std::fabs(src[i]));
      }
    }
    meta->scales[static_cast<std::size_t>(c)] = amax / 127.0f;
  }

  Tensor out(shape_, DType::kI8);
  auto* q = reinterpret_cast<std::int8_t*>(out.ptr_);
  for (std::int64_t c = 0; c < channels; ++c) {
    const float scale = meta->scales[static_cast<std::size_t>(c)];
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    std::int32_t sum = 0;
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = ptr_ + (o * channels + c) * inner;
      std::int8_t* dst = q + (o * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        const int v = static_cast<int>(std::lrintf(src[i] * inv));
        const int clamped = std::clamp(v, -127, 127);
        dst[i] = static_cast<std::int8_t>(clamped);
        sum += clamped;
      }
    }
    meta->sums[static_cast<std::size_t>(c)] = sum;
  }
  out.quant_ = std::move(meta);
  return out;
}

Tensor Tensor::dequantize() const {
  RAMIEL_CHECK(dtype_ == DType::kI8 && quant_ != nullptr,
               "dequantize requires i8 storage with quantization metadata");
  const int ax = quant_->axis;
  const std::int64_t channels = shape_.dim(ax);
  std::int64_t inner = 1;
  for (int d = ax + 1; d < shape_.rank(); ++d) inner *= shape_.dim(d);
  std::int64_t outer = 1;
  for (int d = 0; d < ax; ++d) outer *= shape_.dim(d);

  Tensor out(shape_, DType::kF32);
  const auto* q = reinterpret_cast<const std::int8_t*>(ptr_);
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float scale = quant_->scales[static_cast<std::size_t>(c)];
      const std::int8_t* src = q + (o * channels + c) * inner;
      float* dst = out.ptr_ + (o * channels + c) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        dst[i] = scale * static_cast<float>(src[i]);
      }
    }
  }
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  RAMIEL_CHECK(new_shape.numel() == shape_.numel(),
               str_cat("reshape ", shape_.to_string(), " -> ",
                       new_shape.to_string(), " changes element count"));
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::clone() const {
  // Owning by construction — bypasses the AllocSink so a clone taken to
  // rescue a tensor from arena storage cannot land back in the arena.
  Tensor t;
  t.shape_ = shape_;
  t.dtype_ = dtype_;
  t.quant_ = quant_;
  t.owner_ =
      std::make_shared<std::vector<float>>(owner_floats(size_, dtype_));
  // An empty tensor's data pointers may be null, which memcpy must not get.
  if (size_ != 0) {
    std::memcpy(t.owner_->data(), ptr_, size_ * dtype_size(dtype_));
  }
  t.ptr_ = t.owner_->data();
  t.size_ = size_;
  return t;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (da[i] == db[i]) continue;  // equal infinities included
    // A NaN, or an infinity the other side does not match, is never close.
    if (!std::isfinite(da[i]) || !std::isfinite(db[i])) return false;
    if (std::fabs(da[i] - db[i]) > atol + rtol * std::fabs(db[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace ramiel

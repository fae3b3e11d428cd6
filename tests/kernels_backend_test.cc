// Vector-vs-scalar equivalence suite for the kernel backend (ctest -L
// kernel). The packed/blocked vector path reorders float summation (k-major
// register tiles + FMA), so comparisons use a normalized max-error metric
// rather than elementwise relative error, which blows up at zero crossings.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "mem/arena.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/kernels/scratch.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

using testing::ScopedPath;

/// max|a - b| / max(1, max|b|) — scale-aware, stable around zeros.
double normalized_error(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape().dims(), b.shape().dims());
  double max_diff = 0.0, max_mag = 1.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(double(da[i]) - double(db[i])));
    max_mag = std::max(max_mag, std::abs(double(db[i])));
  }
  return max_diff / max_mag;
}

constexpr double kTol = 1e-4;

Tensor run_matmul(kernels::Path path, const Tensor& a, const Tensor& b,
                  const OpContext& ctx = OpContext::serial()) {
  ScopedPath sp(path);
  return matmul(a, b, ctx);
}

Tensor run_gemm(kernels::Path path, const Tensor& a, const Tensor& b,
                const std::optional<Tensor>& bias, bool ta, bool tb,
                kernels::Activation act) {
  ScopedPath sp(path);
  return gemm(a, b, bias, ta, tb, act);
}

Tensor run_conv(kernels::Path path, const Tensor& x, const Tensor& w,
                const std::optional<Tensor>& bias, const Conv2dParams& p,
                const OpContext& ctx = OpContext::serial()) {
  ScopedPath sp(path);
  return conv2d(x, w, bias, p, ctx);
}

TEST(KernelDispatch, ForcePathOverridesSelection) {
  kernels::force_kernel_path(kernels::Path::kScalar);
  EXPECT_EQ(kernels::active_path(), kernels::Path::kScalar);
  kernels::force_kernel_path(kernels::Path::kVector);
  EXPECT_EQ(kernels::active_path(), kernels::Path::kVector);
  kernels::force_kernel_path(std::nullopt);
}

TEST(SgemmEquivalence, EdgeShapes) {
  // Deliberately awkward shapes: K=1, N not a multiple of NR=16, M not a
  // multiple of MR=6, single rows/cols, and sizes spanning several MC/KC
  // blocks.
  const struct {
    std::int64_t m, n, k;
  } shapes[] = {{1, 1, 1},    {6, 16, 1},   {5, 17, 1},   {7, 33, 64},
                {6, 16, 256}, {13, 40, 70}, {64, 64, 64}, {100, 100, 100},
                {1, 300, 5},  {300, 1, 5},  {73, 2049, 3}, {150, 31, 257}};
  Rng rng(11);
  for (const auto& s : shapes) {
    Tensor a = Tensor::random(Shape{s.m, s.k}, rng);
    Tensor b = Tensor::random(Shape{s.k, s.n}, rng);
    Tensor scalar = run_matmul(kernels::Path::kScalar, a, b);
    Tensor vec = run_matmul(kernels::Path::kVector, a, b);
    EXPECT_LE(normalized_error(vec, scalar), kTol)
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(SgemmEquivalence, RandomizedShapesWithThreads) {
  Rng rng(12);
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  for (int iter = 0; iter < 20; ++iter) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.next_float() * 90);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_float() * 90);
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.next_float() * 90);
    Tensor a = Tensor::random(Shape{m, k}, rng);
    Tensor b = Tensor::random(Shape{k, n}, rng);
    Tensor scalar = run_matmul(kernels::Path::kScalar, a, b, ctx);
    Tensor vec = run_matmul(kernels::Path::kVector, a, b, ctx);
    EXPECT_LE(normalized_error(vec, scalar), kTol)
        << m << "x" << n << "x" << k;
  }
}

TEST(SgemmEquivalence, TransposesBiasAndEpilogues) {
  Rng rng(13);
  const kernels::Activation acts[] = {kernels::Activation::kNone,
                                      kernels::Activation::kRelu,
                                      kernels::Activation::kSigmoid};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (bool with_bias : {false, true}) {
        for (kernels::Activation act : acts) {
          const std::int64_t M = 29, N = 23, K = 37;
          Tensor a = ta ? Tensor::random(Shape{K, M}, rng)
                        : Tensor::random(Shape{M, K}, rng);
          Tensor b = tb ? Tensor::random(Shape{N, K}, rng)
                        : Tensor::random(Shape{K, N}, rng);
          std::optional<Tensor> bias;
          if (with_bias) bias = Tensor::random(Shape{N}, rng);
          Tensor scalar = run_gemm(kernels::Path::kScalar, a, b, bias, ta, tb,
                                   act);
          Tensor vec = run_gemm(kernels::Path::kVector, a, b, bias, ta, tb,
                                act);
          EXPECT_LE(normalized_error(vec, scalar), kTol)
              << "ta=" << ta << " tb=" << tb << " bias=" << with_bias
              << " act=" << static_cast<int>(act);
        }
      }
    }
  }
}

TEST(SgemmEquivalence, BatchedMatmulBroadcasts) {
  Rng rng(14);
  // Shared-weights broadcast (b has no batch dim) and full batched product.
  Tensor a = Tensor::random(Shape{3, 18, 21}, rng);
  Tensor b2 = Tensor::random(Shape{21, 19}, rng);
  Tensor b3 = Tensor::random(Shape{3, 21, 19}, rng);
  for (const Tensor* b : {&b2, &b3}) {
    Tensor scalar = run_matmul(kernels::Path::kScalar, a, *b);
    Tensor vec = run_matmul(kernels::Path::kVector, a, *b);
    EXPECT_LE(normalized_error(vec, scalar), kTol) << b->shape().rank();
  }
}

TEST(ConvEquivalence, StridePadDilationGroups) {
  struct Case {
    std::int64_t C, K, H, W;
    int stride, pad, dilation, groups;
    bool bias;
  };
  const Case cases[] = {
      {3, 8, 9, 9, 1, 1, 1, 1, true},     // vanilla 3x3
      {4, 6, 11, 7, 2, 1, 1, 1, false},   // strided, rectangular
      {4, 8, 13, 13, 1, 2, 2, 1, true},   // dilated
      {6, 6, 8, 8, 1, 1, 1, 3, true},     // grouped (direct path both ways)
      {8, 8, 10, 10, 1, 1, 1, 8, false},  // depthwise
      {5, 7, 6, 6, 2, 0, 1, 1, true},     // no padding, stride 2
  };
  Rng rng(15);
  for (const Case& c : cases) {
    Tensor x = Tensor::random(Shape{2, c.C, c.H, c.W}, rng);
    Tensor w = Tensor::random(Shape{c.K, c.C / c.groups, 3, 3}, rng);
    std::optional<Tensor> bias;
    if (c.bias) bias = Tensor::random(Shape{c.K}, rng);
    Conv2dParams p;
    p.stride_h = p.stride_w = c.stride;
    p.pad_h = p.pad_w = c.pad;
    p.dilation_h = p.dilation_w = c.dilation;
    p.groups = c.groups;
    Tensor scalar = run_conv(kernels::Path::kScalar, x, w, bias, p);
    Tensor vec = run_conv(kernels::Path::kVector, x, w, bias, p);
    EXPECT_LE(normalized_error(vec, scalar), kTol)
        << "C=" << c.C << " K=" << c.K << " g=" << c.groups
        << " s=" << c.stride << " d=" << c.dilation;
  }
}

TEST(ConvEquivalence, FusedEpilogueMatchesUnfused) {
  Rng rng(16);
  Tensor x = Tensor::random(Shape{1, 5, 9, 9}, rng);
  Tensor w = Tensor::random(Shape{7, 5, 3, 3}, rng);
  Tensor bias = Tensor::random(Shape{7}, rng);
  for (kernels::Path path : {kernels::Path::kScalar, kernels::Path::kVector}) {
    for (kernels::Activation act :
         {kernels::Activation::kRelu, kernels::Activation::kSigmoid}) {
      Conv2dParams plain;
      plain.pad_h = plain.pad_w = 1;
      Conv2dParams fused = plain;
      fused.act = act;
      Tensor pre = run_conv(path, x, w, bias, plain);
      kernels::apply_activation(act, pre.mutable_data().data(), pre.numel());
      Tensor out = run_conv(path, x, w, bias, fused);
      EXPECT_LE(normalized_error(out, pre), kTol)
          << "path=" << static_cast<int>(path)
          << " act=" << static_cast<int>(act);
    }
  }
}

TEST(ConvEquivalence, RandomizedShapesWithThreads) {
  Rng rng(17);
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  for (int iter = 0; iter < 12; ++iter) {
    const std::int64_t C = 1 + static_cast<std::int64_t>(rng.next_float() * 7);
    const std::int64_t K = 1 + static_cast<std::int64_t>(rng.next_float() * 9);
    const std::int64_t H = 3 + static_cast<std::int64_t>(rng.next_float() * 12);
    const int stride = 1 + static_cast<int>(rng.next_float() * 2);
    Tensor x = Tensor::random(Shape{1, C, H, H}, rng);
    Tensor w = Tensor::random(Shape{K, C, 3, 3}, rng);
    Conv2dParams p;
    p.pad_h = p.pad_w = 1;
    p.stride_h = p.stride_w = stride;
    Tensor scalar = run_conv(kernels::Path::kScalar, x, w, std::nullopt, p,
                             ctx);
    Tensor vec = run_conv(kernels::Path::kVector, x, w, std::nullopt, p, ctx);
    EXPECT_LE(normalized_error(vec, scalar), kTol)
        << C << "->" << K << " H=" << H << " s=" << stride;
  }
}

// ---------------------------------------------------------------------------
// Scratch plumbing: the arena is an optimization, never a correctness
// dependency — results must be BIT-identical with and without it.
// ---------------------------------------------------------------------------

TEST(KernelScratch, ArenaAndHeapScratchAreBitIdentical) {
  Rng rng(18);
  Tensor x = Tensor::random(Shape{1, 6, 12, 12}, rng);
  Tensor w = Tensor::random(Shape{10, 6, 3, 3}, rng);
  Tensor a = Tensor::random(Shape{50, 60}, rng);
  Tensor b = Tensor::random(Shape{60, 40}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;

  ScopedPath sp(kernels::Path::kVector);  // the path that uses scratch
  Tensor conv_heap = conv2d(x, w, std::nullopt, p);
  Tensor mm_heap = matmul(a, b);

  mem::MemArena arena;
  mem::SlotSink sink;
  sink.set_scratch_arena(&arena);
  Tensor conv_arena, mm_arena;
  {
    mem::ScopedAllocSink install(&sink);
    // Probe: with the sink installed, kernel scratch must come from it.
    kernels::KernelScratch probe(64);
    EXPECT_TRUE(probe.from_sink());
    conv_arena = conv2d(x, w, std::nullopt, p);
    sink.clear();
    mm_arena = matmul(a, b);
  }

  ASSERT_EQ(conv_heap.numel(), conv_arena.numel());
  EXPECT_EQ(0, std::memcmp(conv_heap.data().data(), conv_arena.data().data(),
                           sizeof(float) * conv_heap.numel()));
  ASSERT_EQ(mm_heap.numel(), mm_arena.numel());
  EXPECT_EQ(0, std::memcmp(mm_heap.data().data(), mm_arena.data().data(),
                           sizeof(float) * mm_heap.numel()));
}

TEST(KernelScratch, FallsBackToHeapWithoutSink) {
  kernels::KernelScratch s(1000);
  EXPECT_FALSE(s.from_sink());
  ASSERT_NE(s.data(), nullptr);
  // The blob must be writable over its full extent.
  for (std::size_t i = 0; i < s.numel(); ++i) s.data()[i] = 1.0f;
}

TEST(KernelScratch, NestedAcquisitionDeclinesToHeapInsteadOfGrowing) {
  mem::MemArena arena;
  mem::SlotSink sink;
  sink.set_scratch_arena(&arena);
  mem::ScopedAllocSink install(&sink);

  kernels::KernelScratch outer(32);
  EXPECT_TRUE(outer.from_sink());
  // The arena may only grow at bump offset zero; a nested request larger
  // than the remaining capacity must decline to the heap, not reallocate
  // (which would dangle `outer`).
  kernels::KernelScratch inner(1 << 20);
  EXPECT_FALSE(inner.from_sink());
  ASSERT_NE(inner.data(), nullptr);
}

TEST(KernelScratch, ZeroLengthHoldsNothing) {
  kernels::KernelScratch s(0);
  EXPECT_EQ(s.numel(), 0u);
  EXPECT_FALSE(s.from_sink());
}

TEST(SlotSinkScratch, BumpAllocatorIsLifo) {
  mem::MemArena arena;
  mem::SlotSink sink;
  sink.set_scratch_arena(&arena);

  // Pre-size the block (growth only happens at bump offset zero).
  sink.release_scratch(sink.take_scratch(4096), 4096);

  float* a = sink.take_scratch(10);
  ASSERT_NE(a, nullptr);
  float* b = sink.take_scratch(20);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  sink.release_scratch(b, 20);
  float* c = sink.take_scratch(20);
  EXPECT_EQ(b, c);  // LIFO: freed top is handed out again
  sink.release_scratch(c, 20);
  sink.release_scratch(a, 10);
  EXPECT_EQ(sink.take_scratch(10), a);  // back to the base
}

// ---------------------------------------------------------------------------
// Small-op sequential threshold
// ---------------------------------------------------------------------------

TEST(DispatchThreshold, TinyOpsRunOnCallingThread) {
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  // Below the cutoff: one chunk, on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  bool on_caller = true;
  dispatch_parallel_for(ctx, 8, /*est_cost_per_item=*/1,
                        [&](std::int64_t, std::int64_t) {
                          ++chunks;
                          on_caller &= std::this_thread::get_id() == caller;
                        });
  EXPECT_EQ(chunks, 1);
  EXPECT_TRUE(on_caller);
}

TEST(DispatchThreshold, LargeOpsStillSplit) {
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  std::atomic<int> chunks{0};
  dispatch_parallel_for(ctx, 8, parallel_dispatch_threshold(),
                        [&](std::int64_t, std::int64_t) { ++chunks; });
  EXPECT_GT(chunks.load(), 1);
}

TEST(DispatchThreshold, CoversFullRangeEitherWay) {
  ThreadPool pool(2);
  OpContext ctx{3, &pool};
  for (std::int64_t cost : {std::int64_t{1}, parallel_dispatch_threshold()}) {
    std::vector<std::atomic<int>> hits(64);
    dispatch_parallel_for(ctx, 64, cost,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) ++hits[i];
                          });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace ramiel

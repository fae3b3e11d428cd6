// Google-benchmark microbenchmarks for the tensor kernels that dominate
// the cost profiles (conv2d, matmul, pooling, BERT's broadcast and layout
// ops) plus the cross-worker hand-off the cluster runtime is built on. Useful
// for spotting kernel regressions that would silently skew every simulated
// table.
//
// Every GEMM/conv benchmark is registered twice — `<name>/.../scalar` pins
// the portable reference loops, `<name>/.../vector` the packed cache-blocked
// path capped at the AVX2 tier — so a scalar-vs-vector speedup is one grep
// over the output, and a `/vector` row measures the same kernel on every
// x86 runner (AVX-512 hosts included). The bert MatMul rows run at the
// host's best tier and again under `/avx2`, so the AVX-512 tier's gain is a
// pair of rows from one process. GFLOPS counters report arithmetic
// throughput.
//
//   kernel_microbench --json-out=FILE   # google-benchmark JSON to FILE
//
// plus all standard --benchmark_* flags.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/doorbell.h"
#include "support/rng.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace ramiel {
namespace {

/// Pins the kernel dispatch to one path for a benchmark's lifetime; the
/// vector path is capped at the AVX2 tier (see the header comment).
class ScopedPath {
 public:
  explicit ScopedPath(kernels::Path p) {
    kernels::force_kernel_path(p);
    kernels::force_tier(kernels::Tier::kAvx2);
  }
  ~ScopedPath() {
    kernels::force_kernel_path(std::nullopt);
    kernels::force_tier(std::nullopt);
  }
};

/// Caps the kernel tier for a scope (nullopt: no cap).
class ScopedTier {
 public:
  explicit ScopedTier(std::optional<kernels::Tier> cap) {
    kernels::force_tier(cap);
  }
  ~ScopedTier() { kernels::force_tier(std::nullopt); }
};

using ShapeArgs = std::vector<std::int64_t>;
using ShapeBenchFn = void (*)(benchmark::State&, kernels::Path,
                              const ShapeArgs&);

/// Registers `fn` under `<name>/.../scalar` and `<name>/.../vector`.
void register_paths(const char* name, ShapeBenchFn fn,
                    std::vector<ShapeArgs> shape_args = {{}}) {
  for (int path = 0; path < 2; ++path) {
    const kernels::Path p =
        path == 0 ? kernels::Path::kScalar : kernels::Path::kVector;
    for (const ShapeArgs& shape : shape_args) {
      std::string full = name;
      for (std::int64_t d : shape) full += "/" + std::to_string(d);
      full += path == 0 ? "/scalar" : "/vector";
      benchmark::RegisterBenchmark(
          full.c_str(),
          [fn, p, shape](benchmark::State& state) { fn(state, p, shape); });
    }
  }
}

// ---------------------------------------------------------------------------
// SGEMM: square sizes (256^3 is the blocked-vs-scalar acceptance shape) and
// the BERT-base projection/FFN shapes that dominate transformer inference.
// ---------------------------------------------------------------------------

void BM_SGEMM(benchmark::State& state, kernels::Path path,
              const ShapeArgs& shape) {
  ScopedPath sp(path);
  const std::int64_t M = shape[0];
  const std::int64_t N = shape[1];
  const std::int64_t K = shape[2];
  Rng rng(7);
  Tensor a = Tensor::random(Shape{M, K}, rng);
  Tensor b = Tensor::random(Shape{K, N}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(2 * M * N * K) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_GemmBiasRelu(benchmark::State& state, kernels::Path path,
                     const ShapeArgs& shape) {
  ScopedPath sp(path);
  const std::int64_t M = shape[0];
  const std::int64_t N = shape[1];
  const std::int64_t K = shape[2];
  Rng rng(8);
  Tensor a = Tensor::random(Shape{M, K}, rng);
  Tensor b = Tensor::random(Shape{K, N}, rng);
  Tensor bias = Tensor::random(Shape{N}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gemm(a, b, bias, false, false,
                                  kernels::Activation::kRelu));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(2 * M * N * K) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// ---------------------------------------------------------------------------
// Conv2d: model-zoo shapes. {C, K, H, stride} with 3x3 kernels, pad 1 —
// ResNet stage shapes plus a SqueezeNet expand layer.
// ---------------------------------------------------------------------------

void BM_ConvZoo(benchmark::State& state, kernels::Path path,
                const ShapeArgs& shape) {
  ScopedPath sp(path);
  const std::int64_t C = shape[0];
  const std::int64_t K = shape[1];
  const std::int64_t H = shape[2];
  const int stride = static_cast<int>(shape[3]);
  Rng rng(9);
  Tensor x = Tensor::random(Shape{1, C, H, H}, rng);
  Tensor w = Tensor::random(Shape{K, C, 3, 3}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  p.stride_h = p.stride_w = stride;
  const std::int64_t OH = (H + 2 - 3) / stride + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d(x, w, std::nullopt, p));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(2 * K * C * 9 * OH * OH) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_ConvFusedBiasRelu(benchmark::State& state, kernels::Path path,
                          const ShapeArgs&) {
  ScopedPath sp(path);
  Rng rng(10);
  Tensor x = Tensor::random(Shape{1, 64, 28, 28}, rng);
  Tensor w = Tensor::random(Shape{64, 64, 3, 3}, rng);
  Tensor bias = Tensor::random(Shape{64}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  p.act = kernels::Activation::kRelu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d(x, w, bias, p));
  }
}

// ---------------------------------------------------------------------------
// Dtype axis: the same GEMM / conv-zoo shapes with low-precision storage.
// Compute stays fp32-accumulate; f16/bf16 convert on pack, i8 runs the
// quantized GEMM (per-output-channel weight scales, dynamic activation
// range). Each non-f32 row carries a `speedup_vs_f32` counter measured
// against the fp32 vector path in the same process — that ratio is what the
// bench-diff CI gate ratchets (absolute throughput on a shared CI box is
// noise; the ratio is not). `gflops` / `eff_bandwidth` are deliberately
// lowercase/custom so the differ records but does not gate them.
// The f32 GEMM (the baseline and the f16/bf16 rows) runs at the AVX2 cap and
// i8 at its best tier (VNNI where the host has it), the kernels the
// committed ratios were measured on.
// ---------------------------------------------------------------------------

/// Seconds per call of `fn`, measured with a warmup call and a ~200 ms
/// sampling window. Used for the in-process f32 baseline of the speedup
/// counters.
double seconds_per_call(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm caches and the packing scratch
  int iters = 0;
  const auto t0 = clock::now();
  clock::duration elapsed{};
  do {
    fn();
    ++iters;
    elapsed = clock::now() - t0;
  } while (elapsed < std::chrono::milliseconds(200) && iters < 64);
  return std::chrono::duration<double>(elapsed).count() / iters;
}

/// Low-precision operand storage for one dtype variant: f16/bf16 convert
/// both operands (and the output) to half storage; i8 quantizes the weight
/// per output channel and keeps activations f32 (quantized dynamically
/// inside the kernel).
Tensor storage_for(const Tensor& t, DType dt, int quant_axis) {
  if (dt == DType::kF32) return t;
  if (dt == DType::kI8) return t.quantize_per_channel(quant_axis);
  return t.cast(dt);
}

void BM_SGEMMDtype(benchmark::State& state, DType dt, const ShapeArgs& shape) {
  ScopedPath sp(kernels::Path::kVector);
  const std::int64_t M = shape[0];
  const std::int64_t N = shape[1];
  const std::int64_t K = shape[2];
  Rng rng(7);
  Tensor a = Tensor::random(Shape{M, K}, rng);
  Tensor b = Tensor::random(Shape{K, N}, rng);

  const Tensor a2 = dt == DType::kI8 ? a : storage_for(a, dt, /*axis=*/0);
  const Tensor b2 = storage_for(b, dt, /*axis=*/1);
  const DType out_dt = dt == DType::kI8 ? DType::kF32 : dt;
  const auto run = [&] {
    benchmark::DoNotOptimize(matmul(a2, b2, OpContext::serial(), out_dt));
  };

  double f32_sec = 0.0;
  if (dt != DType::kF32) {
    f32_sec = seconds_per_call([&] { benchmark::DoNotOptimize(matmul(a, b)); });
  }
  if (dt == DType::kI8) kernels::force_tier(std::nullopt);  // see above

  for (auto _ : state) run();

  const double iters = static_cast<double>(state.iterations());
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(2 * M * N * K) * iters * 1e-9,
      benchmark::Counter::kIsRate);
  const Tensor out = matmul(a2, b2, OpContext::serial(), out_dt);
  state.counters["eff_bandwidth"] = benchmark::Counter(
      static_cast<double>(a2.byte_size() + b2.byte_size() + out.byte_size()) *
          iters,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1024);
  if (dt != DType::kF32) {
    // Rate counter trick: value / elapsed = f32_sec_per_iter / sec_per_iter.
    state.counters["speedup_vs_f32"] =
        benchmark::Counter(f32_sec * iters, benchmark::Counter::kIsRate);
  }
}

void BM_ConvZooDtype(benchmark::State& state, DType dt,
                     const ShapeArgs& shape) {
  ScopedPath sp(kernels::Path::kVector);
  const std::int64_t C = shape[0];
  const std::int64_t K = shape[1];
  const std::int64_t H = shape[2];
  const int stride = static_cast<int>(shape[3]);
  Rng rng(9);
  Tensor x = Tensor::random(Shape{1, C, H, H}, rng);
  Tensor w = Tensor::random(Shape{K, C, 3, 3}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  p.stride_h = p.stride_w = stride;
  const std::int64_t OH = (H + 2 - 3) / stride + 1;

  const Tensor x2 = dt == DType::kI8 ? x : storage_for(x, dt, 0);
  const Tensor w2 = storage_for(w, dt, /*axis=*/0);
  Conv2dParams p2 = p;
  if (dt == DType::kF16 || dt == DType::kBF16) p2.out_dtype = dt;
  const auto run = [&] {
    benchmark::DoNotOptimize(conv2d(x2, w2, std::nullopt, p2));
  };

  double f32_sec = 0.0;
  if (dt != DType::kF32) {
    f32_sec = seconds_per_call(
        [&] { benchmark::DoNotOptimize(conv2d(x, w, std::nullopt, p)); });
  }
  if (dt == DType::kI8) kernels::force_tier(std::nullopt);  // see above

  for (auto _ : state) run();

  const double iters = static_cast<double>(state.iterations());
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(2 * K * C * 9 * OH * OH) * iters * 1e-9,
      benchmark::Counter::kIsRate);
  const Tensor out = conv2d(x2, w2, std::nullopt, p2);
  state.counters["eff_bandwidth"] = benchmark::Counter(
      static_cast<double>(x2.byte_size() + w2.byte_size() + out.byte_size()) *
          iters,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1024);
  if (dt != DType::kF32) {
    state.counters["speedup_vs_f32"] =
        benchmark::Counter(f32_sec * iters, benchmark::Counter::kIsRate);
  }
}

using DtypeBenchFn = void (*)(benchmark::State&, DType, const ShapeArgs&);

/// Registers `fn` under `<name>/<shape...>/<dtype>` for every storage dtype.
void register_dtypes(const char* name, DtypeBenchFn fn,
                     const std::vector<ShapeArgs>& shape_args) {
  constexpr DType kDtypes[] = {DType::kF32, DType::kF16, DType::kBF16,
                               DType::kI8};
  for (const DType dt : kDtypes) {
    for (const ShapeArgs& shape : shape_args) {
      std::string full = name;
      for (std::int64_t d : shape) full += "/" + std::to_string(d);
      full += std::string("/") + dtype_name(dt);
      benchmark::RegisterBenchmark(
          full.c_str(),
          [fn, dt, shape](benchmark::State& state) { fn(state, dt, shape); });
    }
  }
}

void register_bert_matmuls();  // with the bert rows below

void register_kernel_benchmarks() {
  register_bert_matmuls();
  register_paths("BM_SGEMM", BM_SGEMM,
                 {{256, 256, 256},     // blocked-vs-scalar acceptance shape
                  {128, 768, 768},     // BERT-base QKV/output projection
                  {128, 3072, 768},    // BERT-base FFN expand
                  {128, 768, 3072}});  // BERT-base FFN contract
  register_paths("BM_GemmBiasRelu", BM_GemmBiasRelu, {{128, 768, 768}});
  register_paths("BM_ConvZoo", BM_ConvZoo,
                 {{64, 64, 56, 1},     // ResNet conv2_x
                  {128, 128, 28, 1},   // ResNet conv3_x
                  {256, 256, 14, 1},   // ResNet conv4_x
                  {64, 128, 56, 2},    // ResNet downsample
                  {48, 192, 27, 1}});  // SqueezeNet expand3x3
  register_paths("BM_ConvFusedBiasRelu", BM_ConvFusedBiasRelu);
  register_dtypes("BM_SGEMMDtype", BM_SGEMMDtype,
                  {{256, 256, 256},     // i8-vs-f32 acceptance shape (>= 2x)
                   {128, 768, 768},     // BERT-base QKV/output projection
                   {128, 3072, 768},    // BERT-base FFN expand
                   {128, 768, 3072}});  // BERT-base FFN contract
  register_dtypes("BM_ConvZooDtype", BM_ConvZooDtype,
                  {{64, 64, 56, 1},     // ResNet conv2_x
                   {128, 128, 28, 1},   // ResNet conv3_x
                   {256, 256, 14, 1},   // ResNet conv4_x
                   {48, 192, 27, 1}});  // SqueezeNet expand3x3
}

// ---------------------------------------------------------------------------
// Legacy fixed-path benchmarks (whatever dispatch picks on this host).
// ---------------------------------------------------------------------------

void BM_Conv2d3x3(benchmark::State& state) {
  const auto ch = state.range(0);
  Rng rng(1);
  Tensor x = Tensor::random(Shape{1, ch, 16, 16}, rng);
  Tensor w = Tensor::random(Shape{ch, ch, 3, 3}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d(x, w, std::nullopt, p));
  }
}
BENCHMARK(BM_Conv2d3x3)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv2dDepthwise(benchmark::State& state) {
  const auto ch = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::random(Shape{1, ch, 16, 16}, rng);
  Tensor w = Tensor::random(Shape{ch, 1, 3, 3}, rng);
  Conv2dParams p;
  p.pad_h = p.pad_w = 1;
  p.groups = static_cast<int>(ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d(x, w, std::nullopt, p));
  }
}
BENCHMARK(BM_Conv2dDepthwise)->Arg(16)->Arg(64);

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  Tensor a = Tensor::random(Shape{n, n}, rng);
  Tensor b = Tensor::random(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulIntraOp(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::random(Shape{128, 128}, rng);
  Tensor b = Tensor::random(Shape{128, 128}, rng);
  ThreadPool pool(static_cast<int>(state.range(0)) - 1);
  OpContext ctx{static_cast<int>(state.range(0)), &pool};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b, ctx));
  }
}
BENCHMARK(BM_MatMulIntraOp)->Arg(1)->Arg(2)->Arg(4);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(5);
  Tensor x = Tensor::random(Shape{1, 32, 32, 32}, rng);
  Pool2dParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride_h = p.stride_w = 2;
  p.pad_h = p.pad_w = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_pool2d(x, p));
  }
}
BENCHMARK(BM_MaxPool);

// Relu over squeezenet's conv1 output (16 x 40 x 40 for the zoo's 80 x 80
// input), as a separate pass when patterns do not fuse it into the conv.
void BM_SqueezenetConv1Relu(benchmark::State& state) {
  Rng rng(19);
  Tensor x = Tensor::random(Shape{1, 16, 40, 40}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(relu(x));
  }
}
BENCHMARK(BM_SqueezenetConv1Relu);

void BM_Softmax(benchmark::State& state) {
  Rng rng(6);
  Tensor x = Tensor::random(Shape{4, 96, 96}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax(x, -1));
  }
}
BENCHMARK(BM_Softmax);

// ---------------------------------------------------------------------------
// BERT-base non-GEMM ops at sequence 96, hidden 128, 4 heads: the bias add,
// LayerNorm's variance square, mean and divide, GELU's multiply, and the
// head split. These run on the strided-run loops (broadcast binary ops,
// transpose, reduce_mean), whose run loops have an AVX2 tier
// (kernels/elementwise_runs.h). GELU's erf over the FF1 output and the fused
// Gelu run on vmath (BM_Softmax above covers the attention softmax,
// [4, 96, 96] per sample).
// ---------------------------------------------------------------------------

void BM_BertErf(benchmark::State& state) {
  Rng rng(15);
  Tensor x = Tensor::random(Shape{1, 96, 512}, rng, -4.0f, 4.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(erf_op(x));
  }
}
BENCHMARK(BM_BertErf);

void BM_BertBiasAdd(benchmark::State& state) {
  Rng rng(11);
  Tensor x = Tensor::random(Shape{1, 96, 128}, rng);
  Tensor bias = Tensor::random(Shape{128}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(add(x, bias));
  }
}
BENCHMARK(BM_BertBiasAdd);

void BM_BertPowSquare(benchmark::State& state) {
  Rng rng(12);
  Tensor x = Tensor::random(Shape{1, 96, 128}, rng);
  Tensor two = Tensor::scalar(2.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pow_op(x, two));
  }
}
BENCHMARK(BM_BertPowSquare);

void BM_BertReduceMean(benchmark::State& state) {
  Rng rng(13);
  Tensor x = Tensor::random(Shape{1, 96, 128}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_mean(x, {-1}));
  }
}
BENCHMARK(BM_BertReduceMean);

void BM_BertLayerNormDiv(benchmark::State& state) {
  Rng rng(16);
  Tensor x = Tensor::random(Shape{1, 96, 128}, rng);
  Tensor std_dev = Tensor::random(Shape{1, 96, 1}, rng, 0.5f, 2.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(div_op(x, std_dev));
  }
}
BENCHMARK(BM_BertLayerNormDiv);

void BM_BertGeluMul(benchmark::State& state) {
  Rng rng(17);
  Tensor x = Tensor::random(Shape{1, 96, 512}, rng);
  Tensor y = Tensor::random(Shape{1, 96, 512}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mul(x, y));
  }
}
BENCHMARK(BM_BertGeluMul);

void BM_BertGelu(benchmark::State& state) {
  Rng rng(18);
  Tensor x = Tensor::random(Shape{1, 96, 512}, rng, -4.0f, 4.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gelu(x));
  }
}
BENCHMARK(BM_BertGelu);

void BM_BertTransposeHeads(benchmark::State& state) {
  Rng rng(14);
  Tensor x = Tensor::random(Shape{1, 96, 4, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpose(x, {0, 2, 1, 3}));
  }
}
BENCHMARK(BM_BertTransposeHeads);

// ---------------------------------------------------------------------------
// BERT MatMuls as the hyperclustered runtime runs them: one product per
// (node, sample) task at sequence 96, hidden 128, FFN 512 and 4 heads of
// 32. At these sizes the per-tile work around the microkernel (packing,
// write-back) costs as much as the FMA loop.
// ---------------------------------------------------------------------------

void BM_BertMatMul(benchmark::State& state, std::optional<kernels::Tier> cap,
                   const Shape& a_shape, const Shape& b_shape) {
  ScopedTier tier(cap);
  Rng rng(15);
  Tensor a = Tensor::random(a_shape, rng);
  Tensor b = Tensor::random(b_shape, rng);
  const std::int64_t flops = 2 * a.numel() * b_shape.dim(-1);  // 2*batch*MNK
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(flops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

/// `BM_BertMatMul/<name>` at the host's best tier and `.../avx2` at the
/// AVX2 cap, for each of bert's five GEMM shapes. The `/avx2` rows enter
/// the gated baseline; the best-tier rows keep their names from before the
/// AVX-512 tier, so no AVX-512 row can go missing on an AVX2-only runner.
void register_bert_matmuls() {
  const struct {
    const char* name;
    Shape a, b;
  } shapes[] = {
      {"proj", Shape{96, 128}, Shape{128, 128}},  // 96x128x128 projections
      {"ff1", Shape{96, 128}, Shape{128, 512}},   // 96x512x128 FFN expand
      {"ff2", Shape{96, 512}, Shape{512, 128}},   // 96x128x512 FFN contract
      // The scores product Q x K^T (B is the transposed K): 4 x (96x96x32).
      {"qk", Shape{1, 4, 96, 32}, Shape{1, 4, 32, 96}},
      {"pv", Shape{1, 4, 96, 96}, Shape{1, 4, 96, 32}},  // 4 x (96x32x96)
  };
  for (const std::optional<kernels::Tier> cap :
       {std::optional<kernels::Tier>(), std::optional(kernels::Tier::kAvx2)}) {
    for (const auto& s : shapes) {
      const std::string name = std::string("BM_BertMatMul/") + s.name +
                               (cap ? std::string("/avx2") : std::string());
      benchmark::RegisterBenchmark(
          name.c_str(), [cap, a = s.a, b = s.b](benchmark::State& state) {
            BM_BertMatMul(state, cap, a, b);
          });
    }
  }
}

// One dependency release from worker A that wakes worker B: the pinned
// placement's cross-home hand-off (B sleeps on its Doorbell; A drops B's
// dependency count to zero and rings). Timed as a ping-pong — B releases A
// straight back — and each iteration reports half the round trip.
void BM_CrossWorkerHandoff(benchmark::State& state) {
  rt::Doorbell bell_a, bell_b;
  std::atomic<std::int32_t> deps_a{1}, deps_b{1};
  std::atomic<bool> stop{false};
  // Sleeps until its count reaches zero, then re-arms and releases `other`.
  const auto await_release = [&](rt::Doorbell& bell,
                                 std::atomic<std::int32_t>& deps) {
    while (true) {
      const std::uint64_t seen = bell.epoch();
      if (stop.load(std::memory_order_acquire)) return false;
      if (deps.load(std::memory_order_acquire) == 0) break;
      bell.wait(seen);
    }
    deps.store(1, std::memory_order_relaxed);
    return true;
  };
  const auto release = [](rt::Doorbell& bell,
                          std::atomic<std::int32_t>& deps) {
    if (deps.fetch_sub(1, std::memory_order_acq_rel) == 1) bell.ring();
  };
  std::thread b([&] {
    while (await_release(bell_b, deps_b)) release(bell_a, deps_a);
  });
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    release(bell_b, deps_b);
    await_release(bell_a, deps_a);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count() / 2);
  }
  stop.store(true, std::memory_order_release);
  bell_b.ring();
  b.join();
}
BENCHMARK(BM_CrossWorkerHandoff)->UseManualTime();

}  // namespace
}  // namespace ramiel

int main(int argc, char** argv) {
  // --json-out=FILE is sugar for google-benchmark's out/out_format pair.
  std::vector<std::string> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    constexpr const char* kFlag = "--json-out=";
    if (it->rfind(kFlag, 0) == 0) {
      const std::string file = it->substr(std::strlen(kFlag));
      it = args.erase(it);
      it = args.insert(it, "--benchmark_out=" + file);
      it = args.insert(it + 1, "--benchmark_out_format=json");
    } else {
      ++it;
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());

  ramiel::register_kernel_benchmarks();
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#include "oracle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "graph/shape_inference.h"
#include "mem/planner.h"
#include "models/zoo.h"
#include "rt/inputs.h"
#include "serve/fleet/fleet_server.h"
#include "serve/fleet/pipeline.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel::oracle {
namespace {

constexpr std::uint64_t kInputSeed = 20261019;

bool is_zoo(const std::string& name) {
  const auto names = models::model_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Seeded example inputs: run `r` of a batch-`batch` cell.
std::vector<TensorMap> inputs_for(const Graph& graph, int batch, int r) {
  Rng rng(kInputSeed + 31 * static_cast<std::uint64_t>(r) +
          static_cast<std::uint64_t>(batch));
  return make_example_inputs(graph, batch, rng);
}

double relative_l2(const Tensor& want, const Tensor& got, double floor) {
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double d = static_cast<double>(want.at(i)) - got.at(i);
    num += d * d;
    den += static_cast<double>(want.at(i)) * want.at(i);
  }
  return std::sqrt(num) / std::max(std::sqrt(den), floor);
}

/// The relation-(2) row for `cell` on the graph named `source`.
Tolerance tolerance(const std::string& source, const Cell& cell) {
  if (cell.dtype != DType::kF32) return quant_fence(source, cell.dtype);
  switch (cell.rewrites) {
    case Rewrites::kPatterns: return kPatterns;
    case Rewrites::kFoldClone: return kZooRewriteChain;
    case Rewrites::kFold: return is_zoo(source) ? kZooRewrite : kSmallRewrite;
    case Rewrites::kNone: break;
  }
  return cell.intra_op > 1 ? kWidth : kExact;
}

std::string describe(const Cell& cell) {
  static const char* const kRewrites[] = {"no rewrites", "fold", "fold+clone",
                                          "patterns"};
  std::ostringstream os;
  os << to_string(cell.placement) << ", " << (cell.arena ? "arena" : "heap")
     << ", " << dtype_name(cell.dtype) << ", "
     << kRewrites[static_cast<int>(cell.rewrites)] << ", batch "
     << cell.batch
     << (cell.hyper == HyperMode::kSwitched ? " switched" : " plain") << ", "
     << (cell.samples > 0 ? str_cat(cell.samples, " samples, ")
                          : std::string())
     << cell.in_flight << " in flight, " << cell.intra_op << " intra-op, "
     << (!cell.tier ? "env"
         : *cell.tier == KernelTier::kScalar ? "scalar"
         : *cell.tier == KernelTier::kVector ? "vector"
                                             : "avx2-capped")
     << " tier, " << (cell.stages > 0 ? str_cat(cell.stages, " stages")
                                      : std::string("no stage cut"));
  return os.str();
}

/// Pins a cell's kernel path and tier cap for a scope; unset pins nothing.
class TierPin {
 public:
  explicit TierPin(std::optional<KernelTier> tier) : pinned_(tier) {
    if (!tier) return;
    kernels::force_kernel_path(*tier == KernelTier::kScalar
                                   ? kernels::Path::kScalar
                                   : kernels::Path::kVector);
    if (*tier == KernelTier::kAvx2) kernels::force_tier(kernels::Tier::kAvx2);
  }
  ~TierPin() {
    if (!pinned_) return;
    kernels::force_kernel_path(std::nullopt);
    kernels::force_tier(std::nullopt);
  }
  TierPin(const TierPin&) = delete;
  TierPin& operator=(const TierPin&) = delete;

 private:
  std::optional<KernelTier> pinned_;
};

}  // namespace

Tensor widen(const Tensor& t) {
  if (t.dtype() == DType::kF32) return t;
  if (t.dtype() == DType::kI8) return t.dequantize();
  return t.cast(DType::kF32);
}

std::vector<std::vector<TensorMap>> run_in_flight(
    ParallelExecutor& exec, const std::vector<std::vector<TensorMap>>& batches,
    const RunOptions& options, std::vector<std::exception_ptr>* errors) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<TensorMap>> out(batches.size());
  if (errors) errors->assign(batches.size(), nullptr);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    exec.submit(0, batches[i], options,
                [&, i](std::vector<TensorMap> got, std::exception_ptr error,
                       Profile) {
                  std::lock_guard<std::mutex> lk(mu);
                  if (errors) {
                    (*errors)[i] = error;
                  } else if (error) {
                    ADD_FAILURE() << "run " << i << " failed";
                  }
                  out[i] = std::move(got);
                  ++completed;
                  cv.notify_all();
                });
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return completed == batches.size(); });
  return out;
}

Tolerance quant_fence(const std::string& model, DType dtype) {
  const bool deep = model == "bert" || !is_zoo(model);
  switch (dtype) {
    case DType::kF16: return deep ? kF16DeepFence : kF16Fence;
    case DType::kBF16: return deep ? kBF16DeepFence : kBF16Fence;
    case DType::kI8: return deep ? kI8DeepFence : kI8Fence;
    default: return kExact;
  }
}

Source zoo(const std::string& model) {
  return {model, [model] { return models::build(model); }};
}

Graph random_dag(std::uint64_t seed) {
  Rng rng(seed);
  Graph g(str_cat("random_", seed));
  const Shape shape{rng.next_below(2) == 0 ? 1 : 4, 8};
  std::vector<ValueId> pool;
  const int num_inputs = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(g.add_value(str_cat("in", i), shape));
    g.mark_input(pool.back());
  }
  const ValueId shared_w =
      g.add_initializer("w", Tensor::full(Shape{8, 8}, 0.125f));
  static constexpr OpKind kUnary[] = {OpKind::kRelu, OpKind::kSigmoid,
                                      OpKind::kTanh, OpKind::kNeg};
  static constexpr OpKind kBinary[] = {OpKind::kAdd, OpKind::kSub,
                                       OpKind::kMul};
  const int num_nodes = 10 + static_cast<int>(rng.next_below(40));
  for (int i = 0; i < num_nodes; ++i) {
    const ValueId a = pool[rng.next_below(pool.size())];
    NodeId n;
    switch (rng.next_below(12)) {
      case 0: {
        n = g.add_node(OpKind::kConstant, str_cat("const", i), {});
        Tensor payload = Tensor::random(shape, rng, -0.5f, 0.5f);
        g.value(g.node(n).outputs[0]).shape = payload.shape();
        g.value(g.node(n).outputs[0]).const_data = std::move(payload);
        break;
      }
      case 1: {
        ValueId w = g.add_initializer(
            str_cat("gw", i), Tensor::random(Shape{8, 8}, rng, -0.4f, 0.4f));
        if (rng.next_below(2) == 0) {
          w = g.node(g.add_node(OpKind::kTranspose, str_cat("tr", i), {w}, 1,
                                Attrs().set("perm",
                                            std::vector<std::int64_t>{1, 0})))
                  .outputs[0];
        }
        n = g.add_node(OpKind::kGemm, str_cat("g", i), {a, w});
        break;
      }
      case 2:
        n = g.add_node(OpKind::kMatMul, str_cat("mm", i), {a, shared_w});
        break;
      case 3: {
        const ValueId c = g.add_initializer(
            str_cat("c", i), Tensor::random(Shape{1, 8}, rng, 0.5f, 1.5f));
        n = g.add_node(rng.next_below(2) == 0 ? OpKind::kAdd : OpKind::kMul,
                       str_cat("k", i),
                       rng.next_below(2) == 0 ? std::vector<ValueId>{a, c}
                                              : std::vector<ValueId>{c, a});
        break;
      }
      case 4:
        n = g.add_node(OpKind::kIdentity, str_cat("id", i), {a});
        break;
      case 5: {
        const NodeId t = g.add_node(OpKind::kTanh, str_cat("t", i), {a});
        n = g.add_node(OpKind::kExp, str_cat("e", i), {g.node(t).outputs[0]});
        break;
      }
      case 6:
      case 7:
      case 8:
        n = g.add_node(kUnary[rng.next_below(4)], str_cat("u", i), {a});
        break;
      default:
        n = g.add_node(kBinary[rng.next_below(3)], str_cat("b", i),
                       {a, pool[rng.next_below(pool.size())]});
        break;
    }
    pool.push_back(g.node(n).outputs[0]);
  }
  for (const Value& v : g.values()) {
    if (v.consumers.empty() && v.producer != kNoNode) g.mark_output(v.id);
  }
  // A mid-graph output that still has consumers: the planner must keep it
  // off the arena.
  for (std::size_t i = pool.size() / 2; i < pool.size(); ++i) {
    const Value& v = g.value(pool[i]);
    if (!v.consumers.empty() && v.producer != kNoNode &&
        g.node(v.producer).kind != OpKind::kConstant) {
      g.mark_output(v.id);
      break;
    }
  }
  if (g.outputs().empty()) g.mark_output(pool.back());
  infer_shapes(g);
  g.validate();
  return g;
}

Source random_source(std::uint64_t seed) {
  return {str_cat("random_", seed), [seed] { return random_dag(seed); }};
}

CompiledModel compile(Graph graph, const Cell& cell) {
  PipelineOptions opts;
  opts.generate_code = false;
  opts.constant_folding = cell.rewrites == Rewrites::kFold ||
                          cell.rewrites == Rewrites::kFoldClone;
  opts.cloning = cell.rewrites == Rewrites::kFoldClone;
  opts.pattern_rewrites = cell.rewrites == Rewrites::kPatterns;
  opts.dtype = cell.dtype;
  opts.batch = cell.batch;
  opts.hyper_mode = cell.hyper;
  return compile_model(std::move(graph), opts);
}

void check(const Source& source, const std::vector<Cell>& cells) {
  const Graph reference = source.build();
  using CompileKey = std::tuple<DType, Rewrites, int, HyperMode>;
  // (tier, width, batch, samples, run) -> outputs, for the oracle and per
  // compile.
  using RunKey = std::tuple<int, int, int, int, int>;
  std::map<CompileKey, CompiledModel> compiled;
  std::map<RunKey, std::vector<TensorMap>> oracle_runs;
  std::map<std::pair<CompileKey, RunKey>, std::vector<TensorMap>> seq_runs;

  for (const Cell& cell : cells) {
    SCOPED_TRACE(source.name + ": " + describe(cell));
    auto pin = std::make_optional<TierPin>(cell.tier);
    // The reference runs' tier: an AVX2 cap is checked against the best.
    const std::optional<KernelTier> ref_tier =
        cell.tier == KernelTier::kAvx2 ? KernelTier::kVector : cell.tier;
    const int tier_key = ref_tier ? static_cast<int>(*ref_tier) : -1;

    const CompileKey key{cell.dtype, cell.rewrites, cell.batch, cell.hyper};
    auto it = compiled.find(key);
    if (it == compiled.end()) {
      it = compiled.emplace(key, compile(source.build(), cell)).first;
    }
    const CompiledModel& cm = it->second;

    Hyperclustering hc = cm.hyperclusters;
    mem::MemPlan plan = cm.mem_plan;
    if (cell.stages > 0) {
      hc = serve::fleet::stage_hyperclusters(
          cm.graph,
          serve::fleet::build_stage_cut(cm.graph, cm.clustering, cell.stages),
          cell.batch);
      plan = mem::plan_memory(cm.graph, hc);
    }
    ParallelExecutor exec(&cm.graph, std::move(hc),
                          cell.arena ? &plan : nullptr, cell.placement);
    EXPECT_EQ(exec.mem_plan_enabled(), cell.arena);

    // One batch twice, or in_flight different batches at once; a short
    // cell keeps the first n samples of each.
    const int runs = std::max(2, cell.in_flight);
    const int n = cell.samples > 0 ? cell.samples : cell.batch;
    std::vector<std::vector<TensorMap>> batches;
    for (int r = 0; r < runs; ++r) {
      batches.push_back(inputs_for(reference, cell.batch,
                                   cell.in_flight == 1 ? 0 : r));
      batches.back().resize(static_cast<std::size_t>(n));
    }
    RunOptions options;
    options.intra_op_threads = cell.intra_op;
    std::vector<std::vector<TensorMap>> got;
    if (cell.in_flight > 1) {
      got = run_in_flight(exec, batches, options);
    } else {
      for (const auto& batch : batches) got.push_back(exec.run(batch, options));
    }
    EXPECT_EQ(exec.runs_completed(), static_cast<std::uint64_t>(runs));
    if (n < cell.batch) {
      // A full run of the first batch's inputs on the same executor (the
      // slot a short run left) agrees with the short run on its samples.
      const std::vector<TensorMap> full =
          exec.run(inputs_for(reference, cell.batch, 0), options);
      expect_bit_identical(
          got[0], std::vector<TensorMap>(full.begin(), full.begin() + n));
    }

    pin.reset();
    const TierPin ref_pin(ref_tier);
    // f32 without rewrites at width 1 computes exactly what the reference
    // graph does, so the oracle run is also the same-graph run.
    const bool exact = cell.dtype == DType::kF32 &&
                       cell.rewrites == Rewrites::kNone && cell.intra_op == 1;
    for (int r = 0; r < runs; ++r) {
      const int input = cell.in_flight == 1 ? 0 : r;
      SCOPED_TRACE(str_cat("run ", r));
      const RunKey oracle_key{tier_key, 1, cell.batch, n, input};
      if (!oracle_runs.count(oracle_key)) {
        oracle_runs[oracle_key] = SequentialExecutor(&reference).run(
            batches[static_cast<std::size_t>(r)]);
      }
      const RunKey seq_key{tier_key, cell.intra_op, cell.batch, n, input};
      auto& same = exact ? oracle_runs[oracle_key] : seq_runs[{key, seq_key}];
      if (same.empty()) {
        same = SequentialExecutor(&cm.graph).run(
            batches[static_cast<std::size_t>(r)], options);
      }
      const auto& out = got[static_cast<std::size_t>(r)];
      for (const TensorMap& sample : out) {
        for (const auto& [name, t] : sample) {
          EXPECT_TRUE(t.owns_storage()) << name << " points into an arena";
        }
      }
      expect_bit_identical(same, out);
      expect_agrees(oracle_runs[oracle_key], out, tolerance(source.name, cell));
    }
  }
}

std::vector<Cell> cells(const Slice& s) {
  std::vector<Cell> out;
  for (ExecutorKind placement : s.placements)
    for (bool arena : s.arenas)
      for (DType dtype : s.dtypes)
        for (Rewrites rewrites : s.rewrites)
          for (int batch : s.batches)
            for (HyperMode hyper : s.hypers)
              for (int samples : s.samples)
                for (int in_flight : s.in_flight)
                  for (int intra_op : s.intra_op)
                    out.push_back({.placement = placement,
                                   .arena = arena,
                                   .dtype = dtype,
                                   .rewrites = rewrites,
                                   .batch = batch,
                                   .hyper = hyper,
                                   .samples = samples,
                                   .in_flight = in_flight,
                                   .intra_op = intra_op});
  return out;
}

std::vector<Cell> pairwise_cells() {
  // Columns: placement (0 static, 1 steal), arena, dtype (0 f32, 1 f16,
  // 2 bf16, 3 i8), rewrites (0 none, 1 fold, 2 fold+clone, 3 patterns),
  // batch, hyper (1 switched), in flight, intra-op, tier (0 scalar,
  // 1 vector), stages. OracleMatrixCells checks the pair coverage.
  static constexpr int kRows[16][10] = {
      {0, 0, 3, 1, 4, 0, 1, 1, 0, 3}, {0, 1, 3, 3, 1, 0, 2, 2, 1, 3},
      {1, 1, 3, 0, 4, 1, 1, 2, 0, 0}, {1, 0, 3, 2, 4, 0, 2, 1, 1, 0},
      {1, 0, 1, 1, 1, 0, 2, 2, 0, 0}, {1, 1, 1, 3, 4, 0, 1, 1, 1, 0},
      {0, 1, 1, 0, 4, 0, 2, 1, 0, 3}, {0, 0, 1, 2, 4, 1, 1, 2, 1, 3},
      {0, 1, 0, 1, 4, 1, 2, 1, 1, 0}, {0, 0, 0, 3, 4, 0, 1, 2, 0, 0},
      {1, 0, 0, 0, 4, 0, 2, 2, 1, 3}, {1, 1, 0, 2, 1, 0, 1, 1, 0, 3},
      {1, 1, 2, 1, 4, 0, 1, 2, 1, 3}, {1, 0, 2, 3, 4, 1, 2, 1, 0, 3},
      {0, 0, 2, 0, 1, 0, 1, 1, 1, 0}, {0, 1, 2, 2, 4, 0, 2, 2, 0, 0},
  };
  std::vector<Cell> out;
  for (const auto& r : kRows) {
    out.push_back({.placement = static_cast<ExecutorKind>(r[0]),
                   .arena = r[1] != 0,
                   .dtype = static_cast<DType>(r[2]),
                   .rewrites = static_cast<Rewrites>(r[3]),
                   .batch = r[4],
                   .hyper = static_cast<HyperMode>(r[5]),
                   .in_flight = r[6],
                   .intra_op = r[7],
                   .tier = static_cast<KernelTier>(r[8]),
                   .stages = r[9]});
  }
  return out;
}

std::vector<TensorMap> serve_all(serve::fleet::FleetServer& server,
                                 const std::string& model,
                                 const std::vector<TensorMap>& samples) {
  std::vector<std::future<serve::Response>> futures;
  for (const TensorMap& sample : samples) {
    futures.push_back(server.submit(model, TensorMap(sample)));
  }
  std::vector<TensorMap> out;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Response r = futures[i].get();
    EXPECT_TRUE(r.ok) << "request " << i << ": " << r.error;
    out.push_back(std::move(r.outputs));
  }
  return out;
}

std::vector<serve::Response> serve_behind(
    serve::fleet::FleetServer& server, const std::string& blocker,
    const std::string& model, const std::vector<TensorMap>& samples) {
  const TensorMap hold_input = testing::example_inputs(
      server.model_entry(blocker)->compiled.graph, 1, 5)[0];
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<TensorMap> owned = samples;  // copied before the blocker
    std::future<serve::Response> hold =
        server.submit(blocker, TensorMap(hold_input));
    std::vector<std::future<serve::Response>> futures;
    for (TensorMap& sample : owned) {
      futures.push_back(server.submit(model, std::move(sample)));
    }
    const bool held =
        hold.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    const serve::Response hold_response = hold.get();
    EXPECT_TRUE(hold_response.ok) << hold_response.error;
    std::vector<serve::Response> out;
    for (auto& f : futures) out.push_back(f.get());
    if (held) return out;
  }
  ADD_FAILURE() << "the blocker finished before the samples were queued, "
                   "in every attempt";
  return {};
}

void check_rewrite(const Graph& reference, const Graph& rewritten,
                   const Tolerance& tolerance,
                   const Hyperclustering* hyperclusters) {
  const auto inputs = inputs_for(reference, 1, 0);
  expect_agrees(SequentialExecutor(&reference).run(inputs),
                hyperclusters
                    ? ParallelExecutor(&rewritten, *hyperclusters).run(inputs)
                    : SequentialExecutor(&rewritten).run(inputs),
                tolerance);
}

void expect_bit_identical(const std::vector<TensorMap>& want,
                          const std::vector<TensorMap>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_EQ(want[s].size(), got[s].size()) << "sample " << s;
    for (const auto& [key, a] : want[s]) {
      const auto it = got[s].find(key);
      ASSERT_NE(it, got[s].end()) << "sample " << s << " lacks " << key;
      const Tensor& b = it->second;
      ASSERT_EQ(a.dtype(), b.dtype()) << key;
      ASSERT_EQ(a.shape().dims(), b.shape().dims()) << key;
      EXPECT_TRUE(a.byte_size() == 0 ||
                  std::memcmp(a.raw(), b.raw(),
                              static_cast<std::size_t>(a.byte_size())) == 0)
          << "sample " << s << " output " << key << " differs bitwise";
    }
  }
}

void expect_agrees(const std::vector<TensorMap>& want,
                   const std::vector<TensorMap>& got,
                   const Tolerance& tolerance) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_EQ(want[s].size(), got[s].size()) << "sample " << s;
    for (const auto& [key, w] : want[s]) {
      const auto it = got[s].find(key);
      ASSERT_NE(it, got[s].end()) << "sample " << s << " lacks " << key;
      const Tensor a = widen(w);
      const Tensor b = widen(it->second);
      ASSERT_EQ(a.shape().dims(), b.shape().dims()) << key;
      if (tolerance.l2 > 0.0) {
        EXPECT_LE(relative_l2(a, b, tolerance.l2_floor), tolerance.l2)
            << "sample " << s << " output " << key;
      } else {
        EXPECT_TRUE(allclose(a, b, tolerance.atol, tolerance.rtol))
            << "sample " << s << " output " << key;
      }
    }
  }
}

}  // namespace ramiel::oracle

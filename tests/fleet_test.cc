// Multi-tenant fleet serving tests (`ctest -L fleet`):
//
//   - token-bucket quota enforcement, exact to the token (manual clock)
//   - FleetQueue admission accounting, weighted-fair dequeue proportions,
//     and aging starvation-freedom under 100:1 weight skew
//   - build_stage_cut properties across the zoo (coverage, topological
//     contiguity, cluster-boundary cuts, modeled speedup)
//   - the stage cut, run as a pinned program with several batches in
//     flight, bit-identical to the sequential executor on all zoo models
//     and to both parallel executors (oracle.h)
//   - the arenas of run slots in flight at once never overlap (property
//     test)
//   - ModelRegistry versioning; FleetServer end-to-end on both pool modes,
//     hot swap and remove under traffic, per-tenant accounting
//   - strict-JSON round-trips of the fleet config and per-tenant stats
//   - open-loop Poisson load generation and --arrival parsing
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "graph/cost_model.h"
#include "graph/shape_inference.h"
#include "mem/planner.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "serve/fleet/admission.h"
#include "serve/fleet/config.h"
#include "serve/fleet/fleet_server.h"
#include "serve/fleet/pipeline.h"
#include "serve/fleet/registry.h"
#include "serve/loadgen.h"
#include "rt/steal/steal_executor.h"
#include "strict_json.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel::serve::fleet {
namespace {

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;

Request make_request(std::int64_t enqueue_ns = 0) {
  Request r;
  r.enqueue_ns = enqueue_ns == 0 ? Stopwatch::now_ns() : enqueue_ns;
  return r;
}

// ------------------------------------------------------------ admission --

TEST(TokenBucket, ExactToTheToken) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/5.0, /*now_ns=*/0);
  EXPECT_DOUBLE_EQ(bucket.available(0), 5.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.try_acquire(0)) << "token " << i;
  }
  EXPECT_FALSE(bucket.try_acquire(0)) << "burst exhausted";
  // 100 ms at 10 rps refills exactly one token.
  EXPECT_TRUE(bucket.try_acquire(100 * kMs));
  EXPECT_FALSE(bucket.try_acquire(100 * kMs));
  // A long idle period caps at burst, not rate * elapsed.
  EXPECT_DOUBLE_EQ(bucket.available(100 * kSec), 5.0);
}

TEST(TokenBucket, UnlimitedAndBackwardClock) {
  TokenBucket unlimited(0.0, 0.0, 0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(unlimited.try_acquire(0));

  TokenBucket bucket(1.0, 1.0, 10 * kSec);
  EXPECT_TRUE(bucket.try_acquire(10 * kSec));
  // A clock that goes backwards must not mint tokens.
  EXPECT_FALSE(bucket.try_acquire(0));
}

TEST(FleetQueue, QuotaAndDepthAccountingIsExact) {
  FleetQueue q;
  TenantOptions opts;
  opts.quota_rps = 5.0;
  opts.burst = 5.0;
  opts.queue_depth = 3;
  const int t = q.add_tenant("a", opts);

  int ok = 0, quota = 0, full = 0;
  for (int i = 0; i < 7; ++i) {
    switch (q.try_push(t, make_request(), /*now_ns=*/0)) {
      case FleetQueue::Admit::kOk: ++ok; break;
      case FleetQueue::Admit::kQuota: ++quota; break;
      case FleetQueue::Admit::kFull: ++full; break;
      default: FAIL();
    }
  }
  // 5 tokens; of those 5, depth 3 admits 3 and sheds 2.
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(full, 2);
  EXPECT_EQ(quota, 2);
  const TenantCounters c = q.counters(t);
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.rejected_quota, 2u);
  EXPECT_EQ(c.rejected_full, 2u);
  EXPECT_EQ(q.tenant_depth(t), 3u);

  // One second later the bucket holds 5 fresh tokens again; the depth gate
  // still caps the queue at 3, and draining frees depth but not tokens.
  std::vector<Request> drained;
  q.take(t, 8, &drained);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.try_push(t, make_request(), kSec), FleetQueue::Admit::kOk);
  }
  EXPECT_EQ(q.try_push(t, make_request(), kSec), FleetQueue::Admit::kFull);
  q.take(t, 8, &drained);
  EXPECT_EQ(q.try_push(t, make_request(), kSec), FleetQueue::Admit::kOk);
  EXPECT_EQ(q.try_push(t, make_request(), kSec), FleetQueue::Admit::kQuota);
}

TEST(FleetQueue, ClosedTenantRejectsButDrains) {
  FleetQueue q;
  const int t = q.add_tenant("a", TenantOptions{});
  ASSERT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kOk);
  q.close_tenant(t);
  EXPECT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kClosed);
  EXPECT_EQ(q.counters(t).rejected_closed, 1u);
  // The queued request stays poppable after close (close-then-drain).
  Request r;
  int from = t;
  EXPECT_EQ(q.pop(&from, &r), FleetQueue::PopResult::kItem);
  EXPECT_EQ(q.pop(&from, &r), FleetQueue::PopResult::kClosed);
}

TEST(FleetQueue, WeightedFairDequeueMatchesWeights) {
  FleetQueue q;
  TenantOptions heavy;
  heavy.weight = 3.0;
  heavy.aging_ns = 0;  // isolate the fair order from aging
  TenantOptions light;
  light.weight = 1.0;
  light.aging_ns = 0;
  const int a = q.add_tenant("heavy", heavy);
  const int b = q.add_tenant("light", light);
  const std::int64_t now = Stopwatch::now_ns();
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(q.try_push(a, make_request(now), now), FleetQueue::Admit::kOk);
    ASSERT_EQ(q.try_push(b, make_request(now), now), FleetQueue::Admit::kOk);
  }
  int from_a = 0, from_b = 0;
  for (int i = 0; i < 12; ++i) {
    Request r;
    int tenant = FleetQueue::kAnyTenant;
    ASSERT_EQ(q.pop(&tenant, &r), FleetQueue::PopResult::kItem);
    (tenant == a ? from_a : from_b)++;
  }
  // 3:1 weights → 9:3 split (ties may shift one pop either way).
  EXPECT_GE(from_a, 8);
  EXPECT_LE(from_a, 10);
  EXPECT_EQ(from_a + from_b, 12);
}

TEST(FleetQueue, AgingBeatsWeightSkewSoNobodyStarves) {
  FleetQueue q;
  TenantOptions heavy;
  heavy.weight = 100.0;  // 100:1 skew toward the saturating tenant
  heavy.aging_ns = 0;
  TenantOptions light;
  light.weight = 1.0;
  light.aging_ns = 10 * kMs;
  const int a = q.add_tenant("heavy", heavy);
  const int b = q.add_tenant("light", light);

  const std::int64_t now = Stopwatch::now_ns();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(q.try_push(a, make_request(now), now), FleetQueue::Admit::kOk);
  }
  // The light request was enqueued long ago — already past its aging bound.
  ASSERT_EQ(q.try_push(b, make_request(now - kSec), now),
            FleetQueue::Admit::kOk);

  Request r;
  int tenant = FleetQueue::kAnyTenant;
  ASSERT_EQ(q.pop(&tenant, &r), FleetQueue::PopResult::kItem);
  EXPECT_EQ(tenant, b) << "aged head must outrank the 100x-weighted tenant";
  EXPECT_EQ(q.counters(b).aged, 1u);
  EXPECT_EQ(q.counters(a).aged, 0u);
}

TEST(FleetQueue, BatchClassNeverAges) {
  FleetQueue q;
  TenantOptions heavy;
  heavy.weight = 100.0;
  heavy.aging_ns = 0;
  TenantOptions batch;
  batch.weight = 1.0;
  batch.aging_ns = 0;  // batch SLO class: waits its fair turn forever
  const int a = q.add_tenant("heavy", heavy);
  const int b = q.add_tenant("batch", batch);
  const std::int64_t now = Stopwatch::now_ns();
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.try_push(a, make_request(now), now), FleetQueue::Admit::kOk);
  }
  ASSERT_EQ(q.try_push(b, make_request(now - 10 * kSec), now),
            FleetQueue::Admit::kOk);
  Request r;
  int tenant = FleetQueue::kAnyTenant;
  ASSERT_EQ(q.pop(&tenant, &r), FleetQueue::PopResult::kItem);
  // Ancient but aging-exempt: the weighted-fair order decides, and both
  // start at ratio 0 — first tenant wins the tie, not the old request.
  EXPECT_EQ(tenant, a);
  EXPECT_EQ(q.counters(b).aged, 0u);
}

TEST(FleetQueue, UpdateTenantSwapsQuotaAtomically) {
  FleetQueue q;
  TenantOptions opts;
  opts.quota_rps = 1.0;
  opts.burst = 1.0;
  const int t = q.add_tenant("a", opts);
  ASSERT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kOk);
  ASSERT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kQuota);

  opts.quota_rps = 100.0;
  opts.burst = 10.0;
  q.update_tenant(t, opts, /*now_ns=*/0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kOk);
  }
  EXPECT_EQ(q.try_push(t, make_request(), 0), FleetQueue::Admit::kQuota);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0}), 1.0);
  // One tenant has everything: 1/n.
  EXPECT_NEAR(jain_fairness({9.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(jain_fairness({4.0, 1.0}), 25.0 / 34.0, 1e-12);
}

// ------------------------------------------------------------- pipeline --

TEST(StageCut, PropertiesHoldAcrossZoo) {
  for (const std::string& name : models::model_names()) {
    CompiledModel cm = oracle::compile(models::build(name), {});
    for (int stages : {2, 3, 4}) {
      const StageCut cut =
          build_stage_cut(cm.graph, cm.clustering, stages);
      ASSERT_GE(cut.num_stages(), 1) << name;
      ASSERT_LE(cut.num_stages(), stages) << name;
      EXPECT_GE(cut.modeled_speedup(), 1.0) << name;

      // Coverage: every live node in exactly one stage.
      std::set<NodeId> seen;
      for (const auto& stage : cut.stage_nodes) {
        for (NodeId id : stage) {
          EXPECT_TRUE(seen.insert(id).second)
              << name << ": node in two stages";
        }
      }
      const std::vector<NodeId> topo = cm.graph.topo_order();
      EXPECT_EQ(seen.size(), topo.size()) << name << ": coverage";

      // Topological: every input of a stage-s node is a constant, a graph
      // input, or produced in a stage <= s (earlier in the flattened cut).
      std::set<ValueId> produced;
      for (const ValueId v : cm.graph.inputs()) produced.insert(v);
      for (const auto& stage : cut.stage_nodes) {
        for (NodeId id : stage) {
          const Node& n = cm.graph.node(id);
          for (ValueId v : n.inputs) {
            const bool is_const = cm.graph.value(v).const_data.has_value();
            EXPECT_TRUE(is_const || produced.count(v) != 0)
                << name << ": '" << cm.graph.value(v).name
                << "' consumed before produced";
          }
          for (ValueId v : n.outputs) produced.insert(v);
        }
      }

      // Cuts only at cluster boundaries: consecutive nodes from the same
      // cluster never straddle a stage boundary (runs stay whole).
      for (int s = 0; s + 1 < cut.num_stages(); ++s) {
        const auto& cur = cut.stage_nodes[static_cast<std::size_t>(s)];
        const auto& next = cut.stage_nodes[static_cast<std::size_t>(s) + 1];
        ASSERT_FALSE(cur.empty());
        ASSERT_FALSE(next.empty());
        const int c_last = cm.clustering.cluster_of[cur.back()];
        const int c_first = cm.clustering.cluster_of[next.front()];
        if (c_last >= 0 && c_first >= 0) {
          EXPECT_NE(c_last, c_first)
              << name << ": stage boundary splits a cluster run";
        }
      }

      // Accounting: stage costs sum to the whole program's cost.
      std::int64_t total = 0;
      for (NodeId id : topo) total += node_weight(cm.graph.node(id));
      std::int64_t staged = 0;
      for (std::int64_t c : cut.stage_cost) staged += c;
      EXPECT_EQ(staged, total) << name;
    }
  }
}

TEST(StageCut, BalancedChainSpeedupApproachesStageCount) {
  // squeezenet's runs balance well at 3 stages; the modeled speedup must
  // reflect a genuinely multi-stage cut (the >= 15% acceptance bar is a
  // fortiori covered by >= 2x here).
  CompiledModel cm = oracle::compile(models::build("squeezenet"), {});
  const StageCut cut = build_stage_cut(cm.graph, cm.clustering, 3);
  EXPECT_EQ(cut.num_stages(), 3);
  EXPECT_GE(cut.modeled_speedup(), 2.0);
}

/// A pipelined tenant's runtime: the stage cut as a pinned one-program
/// executor (worker s = stage s), planned like any hyperclustering.
std::unique_ptr<ParallelExecutor> stage_executor(const CompiledModel& cm,
                                                 int stages, int batch) {
  const StageCut cut = build_stage_cut(cm.graph, cm.clustering, stages);
  Hyperclustering hc = stage_hyperclusters(cm.graph, cut, batch);
  const mem::MemPlan plan = mem::plan_memory(cm.graph, hc);
  return std::make_unique<ParallelExecutor>(&cm.graph, std::move(hc), &plan,
                                            ExecutorKind::kStatic);
}

TEST(StageCutProgram, BitIdenticalToSequentialAcrossZoo) {
  // Two different batches in flight together, each in its own run slot.
  for (const std::string& name : models::model_names()) {
    oracle::check(oracle::zoo(name),
                  {{.batch = 2, .in_flight = 2, .stages = 3}});
  }
}

TEST(StageCutProgram, BitIdenticalToBothParallelExecutors) {
  // Every cell is bit-identical to the sequential run, hence to each other.
  for (const std::string name : {"squeezenet", "bert"}) {
    oracle::check(oracle::zoo(name),
                  {{.batch = 2, .in_flight = 2, .stages = 3},
                   {.batch = 2},
                   {.placement = ExecutorKind::kSteal, .batch = 2}});
  }
}

TEST(StageCutProgram, HeapModeMatchesPlannedMode) {
  oracle::check(oracle::zoo("googlenet"),
                {{.arena = true, .batch = 2, .in_flight = 2, .stages = 3},
                 {.arena = false, .batch = 2, .in_flight = 2, .stages = 3}});
}

TEST(StageCutProgram, InFlightRunSlotsNeverShareArenas) {
  CompiledModel cm = oracle::compile(models::build("squeezenet"), {.batch = 2});
  const auto inputs = testing::example_inputs(cm.graph, 2, 17);
  auto exec = stage_executor(cm, 4, 2);
  // Two back-to-back submits overlap unless the host stalls this thread
  // for a whole run; retry a few times before declaring the slot pool dead.
  for (int attempt = 0; attempt < 20 && exec->run_slots(0) < 2; ++attempt) {
    (void)oracle::run_in_flight(*exec, {inputs, inputs});
  }
  ASSERT_GE(exec->run_slots(0), 2) << "two runs never overlapped";

  const auto spans = exec->run_slot_arenas(0);
  ASSERT_GE(spans.size(), 2u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const char* a_lo = reinterpret_cast<const char*>(spans[i].first);
      const char* a_hi = a_lo + spans[i].second;
      const char* b_lo = reinterpret_cast<const char*>(spans[j].first);
      const char* b_hi = b_lo + spans[j].second;
      EXPECT_TRUE(a_hi <= b_lo || b_hi <= a_lo)
          << "arena " << i << " overlaps arena " << j;
    }
  }
}

TEST(StageCutProgram, OverlappingSubmitsAllResolveCorrectly) {
  // Four runs in flight; every one resolves with its own batch's outputs.
  oracle::check(oracle::zoo("squeezenet"), {{.in_flight = 4, .stages = 3}});
}

TEST(StageCutProgram, RejectsWrongBatchSize) {
  // A run takes 1 to batch samples: 0 and batch + 1 are rejected up front,
  // before anything runs, by run() and submit() alike.
  CompiledModel cm = oracle::compile(models::build("squeezenet"), {.batch = 2});
  auto exec = stage_executor(cm, 2, 2);
  for (int n : {0, 3}) {
    SCOPED_TRACE(str_cat(n, " samples"));
    const std::vector<TensorMap> wrong =
        n == 0 ? std::vector<TensorMap>{}
               : testing::example_inputs(cm.graph, n, 23);
    try {
      (void)exec->run(wrong);
      ADD_FAILURE() << "expected batch-size mismatch to throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("compiled for batch 2"), std::string::npos) << what;
      EXPECT_NE(what.find(str_cat("got ", n, " samples")), std::string::npos)
          << what;
    }
    EXPECT_THROW(exec->submit(0, wrong, RunOptions{},
                              [](std::vector<TensorMap>, std::exception_ptr,
                                 Profile) { ADD_FAILURE() << "ran"; }),
                 Error);
  }
  EXPECT_EQ(exec->runs_completed(), 0u);
  // The rejected calls leave the executor serving.
  EXPECT_EQ(exec->run(testing::example_inputs(cm.graph, 2, 24)).size(), 2u);
}

// ----------------------------------------------------- shared-pool rt ----

TEST(MultiProgramExecutor, TwoModelsOnOnePoolMatchSoloRuns) {
  CompiledModel a = oracle::compile(models::build("squeezenet"), {.batch = 2});
  CompiledModel b = oracle::compile(models::build("googlenet"), {.batch = 2});
  Rng rng(29);
  const auto in_a = make_example_inputs(a.graph, 2, rng);
  const auto in_b = make_example_inputs(b.graph, 2, rng);

  ParallelExecutor solo_a(&a.graph, a.hyperclusters, &a.mem_plan);
  ParallelExecutor solo_b(&b.graph, b.hyperclusters, &b.mem_plan);
  const auto want_a = solo_a.run(in_a);
  const auto want_b = solo_b.run(in_b);

  std::vector<ExecutorProgram> programs;
  programs.push_back(ExecutorProgram{&a.graph, a.hyperclusters, &a.mem_plan});
  ParallelExecutor pool(std::move(programs));
  const int pb = pool.add_program(&b.graph, b.hyperclusters, &b.mem_plan);

  // Interleave dispatches so per-program arenas must stay disjoint.
  for (int round = 0; round < 2; ++round) {
    const auto got_a = pool.run_program(0, in_a);
    const auto got_b = pool.run_program(pb, in_b);
    oracle::expect_bit_identical(want_a, got_a);
    oracle::expect_bit_identical(want_b, got_b);
  }

  pool.remove_program(pb);
  EXPECT_THROW((void)pool.run_program(pb, in_b), Error);
  // Program 0 keeps serving after a neighbor retires.
  (void)pool.run_program(0, in_a);
}

// ------------------------------------------------------------- registry --

Graph scaled_relu_graph(const std::string& name, float scale) {
  Graph g(name);
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  ValueId k = g.add_initializer("k", Tensor::full(Shape{1, 4}, scale));
  NodeId r = g.add_node(OpKind::kRelu, "r", {in});
  NodeId m = g.add_node(OpKind::kMul, "m", {g.node(r).outputs[0], k});
  g.mark_output(g.node(m).outputs[0]);
  infer_shapes(g);
  return g;
}

/// Loader for fleet tests: "scaleN" builds a graph multiplying relu(x) by N.
ModelRegistry::Loader scale_loader() {
  return [](const std::string& spec) {
    float scale = 1.0f;
    if (spec.rfind("scale", 0) == 0) {
      scale = static_cast<float>(std::atof(spec.c_str() + 5));
    }
    return scaled_relu_graph(spec, scale);
  };
}

TEST(ModelRegistry, AddLookupSwapRemove) {
  ModelRegistry registry(RegistryOptions{}, scale_loader());
  ModelConfig config;
  config.name = "m";
  config.model = "scale2";
  config.batch = 2;
  auto v1 = registry.add(config);
  EXPECT_EQ(v1->version, 1);
  EXPECT_NE(v1->executor, ExecutorKind::kAuto) << "auto must be resolved";
  EXPECT_EQ(registry.version("m"), 1);
  EXPECT_EQ(registry.lookup("m"), v1);

  config.model = "scale3";
  auto v2 = registry.add(config);
  EXPECT_EQ(v2->version, 2);
  EXPECT_EQ(registry.lookup("m"), v2);
  // The swapped-out handle stays usable by whoever still holds it.
  EXPECT_EQ(v1->config.model, "scale2");

  EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});
  EXPECT_TRUE(registry.remove("m"));
  EXPECT_FALSE(registry.remove("m"));
  EXPECT_EQ(registry.version("m"), 0);
  EXPECT_EQ(registry.lookup("m"), nullptr);
}

TEST(ModelRegistry, AutoPolicyThresholdPicksRuntime) {
  ModelConfig config;
  config.name = "m";
  config.model = "scale1";
  {
    RegistryOptions always_steal;
    always_steal.auto_steal_cv = -1.0;  // any cv exceeds it
    ModelRegistry registry(always_steal, scale_loader());
    EXPECT_EQ(registry.add(config)->executor, ExecutorKind::kSteal);
  }
  {
    RegistryOptions never_steal;
    never_steal.auto_steal_cv = 1e9;
    ModelRegistry registry(never_steal, scale_loader());
    EXPECT_EQ(registry.add(config)->executor, ExecutorKind::kStatic);
  }
}

// ---------------------------------------------------------- fleet server --

FleetConfig two_tenant_config(const std::string& pool) {
  FleetConfig config;
  config.pool = pool;
  ModelConfig a;
  a.name = "alpha";
  a.model = "scale2";
  a.batch = 2;
  ModelConfig b;
  b.name = "beta";
  b.model = "scale3";
  b.batch = 2;
  config.models = {a, b};
  return config;
}

TensorMap scale_input(float v) {
  TensorMap m;
  m.emplace("x", Tensor::full(Shape{1, 4}, v));
  return m;
}

void expect_scaled(const Response& resp, float in, float scale) {
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_EQ(resp.outputs.size(), 1u);
  const Tensor& out = resp.outputs.begin()->second;
  for (float f : out.data()) EXPECT_FLOAT_EQ(f, in * scale);
}

TEST(FleetServer, ServesTwoTenantsOnEitherPool) {
  for (const std::string pool : {"shared", "partitioned"}) {
    FleetServer fleet(two_tenant_config(pool), FleetOptions{},
                      scale_loader());
    EXPECT_EQ(fleet.pool(), pool);
    EXPECT_EQ(fleet.num_tenants(), 2);

    std::vector<std::future<Response>> alpha, beta;
    for (int i = 0; i < 8; ++i) {
      alpha.push_back(fleet.submit("alpha", scale_input(1.0f + i)));
      beta.push_back(fleet.submit("beta", scale_input(1.0f + i)));
    }
    for (int i = 0; i < 8; ++i) {
      expect_scaled(alpha[static_cast<std::size_t>(i)].get(), 1.0f + i, 2.0f);
      expect_scaled(beta[static_cast<std::size_t>(i)].get(), 1.0f + i, 3.0f);
    }
    fleet.shutdown();

    const TenantCounters ca = fleet.tenant_counters("alpha");
    EXPECT_EQ(ca.admitted, 8u);
    const ServerStats sa = fleet.tenant_stats("alpha");
    EXPECT_EQ(sa.served, 8u);
    // The final exact-latency window was flushed by shutdown.
    EXPECT_EQ(fleet.tenant_window_stats("alpha").window_served, 8u);
  }
}

TEST(FleetServer, UnknownModelAndQuotaRejectionsAccounted) {
  FleetConfig config = two_tenant_config("shared");
  config.models[0].quota_rps = 1.0;
  config.models[0].burst = 1.0;
  FleetServer fleet(config, FleetOptions{}, scale_loader());

  Response unknown = fleet.submit("gamma", scale_input(1.0f)).get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown model"), std::string::npos);

  // Burst 1: the first submit takes the only token, the second is clipped.
  auto first = fleet.submit("alpha", scale_input(1.0f));
  Response clipped = fleet.submit("alpha", scale_input(2.0f)).get();
  EXPECT_FALSE(clipped.ok);
  EXPECT_NE(clipped.error.find("quota"), std::string::npos);
  expect_scaled(first.get(), 1.0f, 2.0f);

  const TenantCounters c = fleet.tenant_counters("alpha");
  EXPECT_EQ(c.admitted, 1u);
  EXPECT_EQ(c.rejected_quota, 1u);
  const ServerStats s = fleet.tenant_stats("alpha");
  EXPECT_EQ(s.rejected, 1u);
  fleet.shutdown();
}

TEST(FleetServer, HotSwapDuringTrafficFinishesInFlightOnOldVersion) {
  for (const std::string pool : {"shared", "partitioned"}) {
    FleetServer fleet(two_tenant_config(pool), FleetOptions{},
                      scale_loader());
    EXPECT_EQ(fleet.model_version("alpha"), 1);

    // Background traffic across the swap: every response must be valid
    // under ONE of the two versions (never torn).
    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::thread traffic([&] {
      while (!stop.load()) {
        Response r = fleet.submit("alpha", scale_input(1.0f)).get();
        if (!r.ok) continue;  // shutdown race only
        const float got = r.outputs.begin()->second.data()[0];
        if (got != 2.0f && got != 5.0f) bad.fetch_add(1);
      }
    });

    ModelConfig swap;
    swap.name = "alpha";
    swap.model = "scale5";
    swap.batch = 2;
    fleet.add_model(swap);
    EXPECT_EQ(fleet.model_version("alpha"), 2);

    stop.store(true);
    traffic.join();
    EXPECT_EQ(bad.load(), 0);

    // Post-swap traffic runs the new artifact.
    expect_scaled(fleet.submit("alpha", scale_input(3.0f)).get(), 3.0f, 5.0f);
    // The neighbor tenant was untouched.
    expect_scaled(fleet.submit("beta", scale_input(3.0f)).get(), 3.0f, 3.0f);
    fleet.shutdown();
  }
}

TEST(FleetServer, RemoveModelDrainsThenRejects) {
  for (const std::string pool : {"shared", "partitioned"}) {
    FleetServer fleet(two_tenant_config(pool), FleetOptions{},
                      scale_loader());
    std::vector<std::future<Response>> pending;
    for (int i = 0; i < 6; ++i) {
      pending.push_back(fleet.submit("alpha", scale_input(1.0f + i)));
    }
    ASSERT_TRUE(fleet.remove_model("alpha"));
    // Already-admitted requests were served, not dropped.
    for (int i = 0; i < 6; ++i) {
      Response r = pending[static_cast<std::size_t>(i)].get();
      if (r.ok) expect_scaled(r, 1.0f + i, 2.0f);
    }
    EXPECT_FALSE(fleet.remove_model("alpha")) << "idempotent per name";
    EXPECT_EQ(fleet.model_version("alpha"), 0);
    EXPECT_EQ(fleet.models(), std::vector<std::string>{"beta"});

    Response late = fleet.submit("alpha", scale_input(1.0f)).get();
    EXPECT_FALSE(late.ok);
    // The survivor keeps serving.
    expect_scaled(fleet.submit("beta", scale_input(2.0f)).get(), 2.0f, 3.0f);
    fleet.shutdown();
  }
}

TEST(FleetServer, PipelinedTenantServesCorrectlyAndReportsCut) {
  CompiledModel reference =
      oracle::compile(models::build("squeezenet"), {.batch = 2});
  const auto inputs = testing::example_inputs(reference.graph, 4, 31);
  SequentialExecutor seq(&reference.graph);

  // A pipelined tenant runs on its own executor in either pool mode.
  for (const std::string pool : {"partitioned", "shared"}) {
    FleetConfig config;
    config.pool = pool;
    ModelConfig m;
    m.name = "squeezenet";
    m.batch = 2;
    m.pipeline_stages = 3;
    config.models = {m};
    FleetServer fleet(config, FleetOptions{});
    SCOPED_TRACE(pool + " pipelined tenant");
    oracle::expect_bit_identical(
        seq.run(inputs), oracle::serve_all(fleet, "squeezenet", inputs));
    fleet.shutdown();

    const auto reports = fleet.report();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].pipeline_stages, 3) << pool;
    EXPECT_GE(reports[0].modeled_pipeline_speedup, 2.0) << pool;
    EXPECT_EQ(reports[0].stats.served, 4u) << pool;
    // Each batch reports its wall time and one busy total per stage.
    EXPECT_EQ(reports[0].stats.num_workers, 3) << pool;
    EXPECT_GT(reports[0].stats.exec_wall_ms, 0.0) << pool;
    EXPECT_GT(reports[0].stats.worker_busy_ms, 0.0) << pool;
  }
}

TEST(FleetServer, PipelinedTenantKeepsTailExemplarsPerStage) {
  FleetConfig config;
  config.pool = "partitioned";
  ModelConfig m;
  m.name = "squeezenet";
  m.batch = 4;
  m.pipeline_stages = 3;
  config.models = {m};
  FleetOptions options;
  options.profile = true;
  FleetServer fleet(config, options);
  const CompiledModel& cm = fleet.model_entry("squeezenet")->compiled;
  (void)oracle::serve_all(fleet, "squeezenet",
                          testing::example_inputs(cm.graph, 8, 41));
  fleet.shutdown();

  // The slowest batches are kept with their per-task profile: one worker
  // per stage, and a critical path through the stages.
  const std::vector<TailExemplar> tail = fleet.tail_exemplars("squeezenet");
  ASSERT_FALSE(tail.empty());
  for (const TailExemplar& ex : tail) {
    EXPECT_EQ(ex.profile.workers.size(), 3u);
    EXPECT_FALSE(ex.profile.events.empty());
    EXPECT_TRUE(ex.report.valid);
    EXPECT_EQ(ex.report.workers, 3);
    EXPECT_FALSE(ex.report.path.empty());
  }
}

TEST(FleetServer, LoneRequestRunsOneSampleOfABatch4Tenant) {
  // A lone request at an idle tenant leaves at once and runs one sample's
  // tasks, not four. It answers exactly what it answers inside a full
  // batch (at another sample slot of the switched interleave): the full
  // batch queues behind a blocker on the shared pool, and on the
  // partitioned pool the reference is the sequential run.
  obs::Counter* tasks_total = obs::registry().counter(
      "ramiel_rt_tasks_total", "Graph tasks executed (node x sample)");
  for (const std::string pool : {"shared", "partitioned"}) {
    SCOPED_TRACE(pool);
    FleetConfig config;
    config.pool = pool;
    ModelConfig blocker;
    blocker.name = "blocker";
    blocker.model = "squeezenet";
    blocker.batch = 1;
    ModelConfig m;
    m.name = "squeezenet";
    m.batch = 4;
    m.hyper = HyperMode::kSwitched;
    config.models = {blocker, m};
    FleetOptions options;
    options.profile = true;
    FleetServer fleet(config, options);
    const CompiledModel& cm = fleet.model_entry("squeezenet")->compiled;
    std::size_t tasks = 0;
    for (const auto& list : cm.hyperclusters.workers) tasks += list.size();
    const auto inputs = testing::example_inputs(cm.graph, 4, 71);

    const std::uint64_t before = tasks_total->value();
    Response lone = fleet.submit("squeezenet", TensorMap(inputs[2])).get();
    ASSERT_TRUE(lone.ok) << lone.error;
    EXPECT_EQ(tasks_total->value() - before, tasks / 4);
    EXPECT_EQ(lone.batch_real, 1);
    EXPECT_EQ(lone.batch_slots, 4);

    // The short batch's exemplar: a critical path over sample 0 only.
    const std::vector<TailExemplar> tail = fleet.tail_exemplars("squeezenet");
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_TRUE(tail[0].report.valid);
    EXPECT_EQ(tail[0].report.tasks, static_cast<int>(tasks / 4));
    EXPECT_FALSE(tail[0].report.path.empty());
    for (const auto& [node, sample] : tail[0].report.critical_tasks()) {
      EXPECT_EQ(sample, 0) << "node " << node;
    }

    if (pool == "shared") {
      const std::vector<Response> got =
          oracle::serve_behind(fleet, "blocker", "squeezenet", inputs);
      ASSERT_EQ(got.size(), 4u);
      for (const Response& r : got) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.batch_real, 4);
      }
      oracle::expect_bit_identical({got[2].outputs}, {lone.outputs});
    } else {
      oracle::expect_bit_identical(SequentialExecutor(&cm.graph).run({inputs[2]}),
                                   {lone.outputs});
    }
    fleet.shutdown();
  }
}

TEST(FleetServer, SharedPoolReportsThePinnedPlacementItRuns) {
  // A shared pool runs every tenant pinned, whatever the config asks for;
  // the report, the stats JSON and the executor gauge must say so. The
  // partitioned pool honours the request.
  for (const std::string pool : {"shared", "partitioned"}) {
    FleetConfig config = two_tenant_config(pool);
    config.models[0].name = "alpha_" + pool;
    config.models[0].executor = ExecutorKind::kSteal;
    FleetServer fleet(config, FleetOptions{}, scale_loader());
    const ExecutorKind runs =
        pool == "shared" ? ExecutorKind::kStatic : ExecutorKind::kSteal;
    const std::string name = config.models[0].name;
    expect_scaled(fleet.submit(name, scale_input(1.0f)).get(), 1.0f, 2.0f);
    fleet.shutdown();

    EXPECT_EQ(fleet.model_entry(name)->executor, runs) << pool;
    EXPECT_EQ(fleet.report()[0].executor, runs) << pool;
    EXPECT_NE(fleet.stats_json().find(str_cat("\"executor\":\"",
                                              to_string(runs), "\"")),
              std::string::npos)
        << pool;
    const obs::Gauge* gauge = obs::registry().gauge(
        "ramiel_serve_executor_steal",
        "1 when this model runs the work-stealing executor",
        {{"model", name}});
    EXPECT_EQ(gauge->value(), runs == ExecutorKind::kSteal ? 1.0 : 0.0)
        << pool;
  }
}

TEST(FleetServer, PipelinedTenantReportsThePinnedStagesItRuns) {
  // A pipelined tenant runs its stage cut on a pinned executor, so on a
  // partitioned pool it must report static whatever the config asks for:
  // in the report, the stats JSON and the executor gauge.
  for (const ExecutorKind asked : {ExecutorKind::kSteal, ExecutorKind::kAuto}) {
    FleetConfig config;
    config.pool = "partitioned";
    ModelConfig m;
    m.name = str_cat("piped_", to_string(asked));
    m.model = "squeezenet";
    m.batch = 2;
    m.pipeline_stages = 3;
    m.executor = asked;
    config.models = {m};
    FleetServer fleet(config, FleetOptions{});
    const CompiledModel& cm = fleet.model_entry(m.name)->compiled;
    TensorMap input = testing::example_inputs(cm.graph, 1, 37)[0];
    const Response r = fleet.submit(m.name, std::move(input)).get();
    ASSERT_TRUE(r.ok) << r.error;
    fleet.shutdown();

    const std::string what = to_string(asked);
    EXPECT_EQ(fleet.model_entry(m.name)->executor, ExecutorKind::kStatic)
        << what;
    ASSERT_EQ(fleet.report().size(), 1u);
    EXPECT_EQ(fleet.report()[0].pipeline_stages, 3) << what;
    EXPECT_EQ(fleet.report()[0].executor, ExecutorKind::kStatic) << what;
    EXPECT_NE(fleet.stats_json().find("\"executor\":\"static\""),
              std::string::npos)
        << what;
    const obs::Gauge* gauge = obs::registry().gauge(
        "ramiel_serve_executor_steal",
        "1 when this model runs the work-stealing executor",
        {{"model", m.name}});
    EXPECT_EQ(gauge->value(), 0.0) << what;
  }
}

TEST(FleetServer, StatsJsonIsStrictAndComplete) {
  FleetServer fleet(two_tenant_config("shared"), FleetOptions{},
                    scale_loader());
  (void)fleet.submit("alpha", scale_input(1.0f)).get();
  fleet.shutdown();
  const std::string doc = fleet.stats_json();
  std::string err;
  EXPECT_TRUE(testutil::StrictJson::valid(doc, &err)) << err << "\n" << doc;
  EXPECT_NE(doc.find("\"model\":\"alpha\""), std::string::npos);
  EXPECT_NE(doc.find("\"model\":\"beta\""), std::string::npos);
  EXPECT_NE(doc.find("\"window_p99_ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"rejected_quota\""), std::string::npos);
}

TEST(FleetServer, CompileOptionsFoldSwitchedI8MatchTheF32Oracle) {
  // Calibrate the folded f32 graph on the samples the test serves.
  PipelineOptions folded_opts;
  folded_opts.constant_folding = true;
  folded_opts.generate_code = false;
  folded_opts.mem_planning = false;
  CompiledModel folded =
      compile_model(models::build("squeezenet"), folded_opts);
  const auto inputs = testing::example_inputs(folded.graph, 4, 41);
  const std::string calib =
      ::testing::TempDir() + "/fleet_test_squeezenet.calib";
  write_calibration(folded.graph,
                    record_calibration(folded.graph, inputs), calib);

  // A shared pool, so the four requests can queue behind a blocker and
  // leave as one full batch (oracle::serve_behind).
  FleetConfig config = single_tenant_config("squeezenet");
  config.pool = "shared";
  ModelConfig blocker;
  blocker.name = "blocker";
  blocker.model = "squeezenet";
  blocker.batch = 1;
  config.models.insert(config.models.begin(), blocker);
  ModelConfig& m = config.models[1];
  m.batch = 4;
  m.fold = true;
  m.hyper = HyperMode::kSwitched;
  m.dtype = DType::kI8;
  m.calib = calib;
  FleetServer server(config, FleetOptions{});

  // The tenant compiled with every option.
  const CompiledModel& cm = server.model_entry("squeezenet")->compiled;
  bool folded_pass = false;
  for (const PassReport& p : cm.pass_reports) {
    folded_pass = folded_pass || p.pass == "constant_folding";
  }
  EXPECT_TRUE(folded_pass);
  EXPECT_EQ(cm.hyperclusters.worker_of,
            build_switched_hyperclusters(cm.graph, cm.clustering, 4)
                .worker_of);
  EXPECT_GT(cm.quant_stats.weights_quantized, 0);
  EXPECT_GT(cm.quant_stats.nodes_calibrated, 0) << "calib file consumed";

  // The oracle: f32 SequentialExecutor on the untransformed model.
  Graph reference = models::build("squeezenet");
  std::vector<TensorMap> outputs;
  for (Response& r :
       oracle::serve_behind(server, "blocker", "squeezenet", inputs)) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_real, 4);  // one full batch
    outputs.push_back(std::move(r.outputs));
  }
  oracle::expect_agrees(SequentialExecutor(&reference).run(inputs), outputs,
                        oracle::quant_fence("squeezenet", DType::kI8));
  server.shutdown();
  std::remove(calib.c_str());
}

// --------------------------------------------------------------- config --

TEST(FleetConfigJson, RoundTripsLosslessly) {
  FleetConfig config;
  config.pool = "partitioned";
  config.aging_ms = 12.5;
  ModelConfig a;
  a.name = "squeezenet";
  a.model = "";
  a.batch = 8;
  a.slo_class = "interactive";
  a.executor = ExecutorKind::kSteal;
  a.quota_rps = 200.0;
  a.burst = 50.0;
  a.weight = 2.0;
  a.queue_depth = 32;
  a.pipeline_stages = 4;
  a.fold = true;
  a.clone = true;
  a.hyper = HyperMode::kSwitched;
  a.dtype = DType::kI8;
  a.calib = "squeezenet.calib";
  ModelConfig b;
  b.name = "bert_tenant";
  b.model = "bert";
  b.slo_class = "batch";
  config.models = {a, b};

  const std::string doc = to_json(config);
  std::string err;
  ASSERT_TRUE(testutil::StrictJson::valid(doc, &err)) << err;

  FleetConfig parsed;
  std::string parse_err;
  ASSERT_TRUE(parse_fleet_config(doc, &parsed, &parse_err)) << parse_err;
  EXPECT_EQ(parsed.pool, config.pool);
  EXPECT_DOUBLE_EQ(parsed.aging_ms, config.aging_ms);
  ASSERT_EQ(parsed.models.size(), 2u);
  EXPECT_EQ(parsed.models[0].name, a.name);
  EXPECT_EQ(parsed.models[0].batch, a.batch);
  EXPECT_EQ(parsed.models[0].slo_class, a.slo_class);
  EXPECT_EQ(parsed.models[0].executor, a.executor);
  EXPECT_DOUBLE_EQ(parsed.models[0].quota_rps, a.quota_rps);
  EXPECT_DOUBLE_EQ(parsed.models[0].burst, a.burst);
  EXPECT_DOUBLE_EQ(parsed.models[0].weight, a.weight);
  EXPECT_EQ(parsed.models[0].queue_depth, a.queue_depth);
  EXPECT_EQ(parsed.models[0].pipeline_stages, a.pipeline_stages);
  EXPECT_TRUE(parsed.models[0].fold);
  EXPECT_TRUE(parsed.models[0].clone);
  EXPECT_EQ(parsed.models[0].hyper, HyperMode::kSwitched);
  EXPECT_EQ(parsed.models[0].dtype, DType::kI8);
  EXPECT_EQ(parsed.models[0].calib, a.calib);
  // Omitted compile options keep the defaults: the model compiles as-is.
  EXPECT_FALSE(parsed.models[1].fold);
  EXPECT_FALSE(parsed.models[1].clone);
  EXPECT_EQ(parsed.models[1].hyper, HyperMode::kPlain);
  EXPECT_EQ(parsed.models[1].dtype, DType::kF32);
  EXPECT_EQ(parsed.models[1].calib, "");
  EXPECT_EQ(parsed.models[1].model, "bert");
  EXPECT_EQ(parsed.models[1].slo_class, "batch");
  // Round-trip closes: re-serialization is byte-identical.
  EXPECT_EQ(to_json(parsed), doc);
}

TEST(FleetConfigJson, RejectsInvalidDocuments) {
  FleetConfig out;
  std::string err;
  EXPECT_FALSE(parse_fleet_config("{", &out, &err));
  EXPECT_FALSE(parse_fleet_config(
      R"({"pool":"banana","models":[{"name":"a"}]})", &out, &err));
  EXPECT_FALSE(parse_fleet_config(
      R"({"models":[{"name":"a","batch":0}]})", &out, &err));
  EXPECT_FALSE(parse_fleet_config(
      R"({"models":[{"name":"a"},{"name":"a"}]})", &out, &err))
      << "duplicate tenant names";
  EXPECT_FALSE(parse_fleet_config(
      R"({"models":[{"name":"a","slo_class":"urgent"}]})", &out, &err));
  EXPECT_FALSE(parse_fleet_config(
      R"({"models":[{"name":"a","executor":"gpu"}]})", &out, &err));
  EXPECT_FALSE(parse_fleet_config(R"({"models":[]})", &out, &err));
  EXPECT_FALSE(parse_fleet_config(
      R"({"pool":"shared","agin_ms":5,"models":[{"name":"a"}]})", &out, &err));
  EXPECT_NE(err.find("fleet config: unknown key 'agin_ms'"), std::string::npos)
      << err;

  // Integers must be integral and fit an int: no silent truncation (2.7
  // would serve batch 2), no wraparound (3e9), no undefined cast (1e300).
  const auto rejects = [&](const std::string& member,
                           const std::string& want) {
    const std::string doc =
        R"({"models":[{"name":"a",)" + member + "}]}";
    err.clear();
    EXPECT_FALSE(parse_fleet_config(doc, &out, &err)) << doc;
    EXPECT_NE(err.find(want), std::string::npos) << doc << " -> " << err;
  };
  rejects(R"("batch":2.7)", "member 'batch' must be an integer");
  rejects(R"("queue_depth":3e9)", "member 'queue_depth' must be an integer");
  rejects(R"("pipeline_stages":1e300)",
          "member 'pipeline_stages' must be an integer");
  rejects(R"("batch":-2)", "batch must be >= 1");
  rejects(R"("queue_depth":0)", "queue_depth must be >= 1");
  rejects(R"("pipeline_stages":0)", "pipeline_stages must be >= 1");
  // Unknown keys name themselves: a retired knob or a typo is an error,
  // not a silent default.
  rejects(R"("flush_timeout_ms":2.0)", "unknown key 'flush_timeout_ms'");
  rejects(R"("quota_rsp":10)", "unknown key 'quota_rsp'");
  rejects(R"("weight":0)", "weight must be > 0");
  rejects(R"("hyper":"zigzag")", "hyper 'zigzag'");
  rejects(R"("dtype":"f64")", "dtype 'f64'");
  rejects(R"("fold":"yes")", "member 'fold' must be true or false");
  rejects(R"("clone":1)", "member 'clone' must be true or false");
  rejects(R"("calib":7)", "member 'calib' must be a string");
  // Every error names the tenant.
  rejects(R"("batch":2.7)", "model 'a'");
  // Integral doubles are integers.
  ASSERT_TRUE(parse_fleet_config(
      R"({"models":[{"name":"a","batch":8.0,"queue_depth":1e3}]})", &out,
      &err))
      << err;
  EXPECT_EQ(out.models[0].batch, 8);
  EXPECT_EQ(out.models[0].queue_depth, 1000);
}

TEST(ModelRegistry, AddRejectsWhatTheParserRejects) {
  // Configs built in code go through the same validate() as JSON ones.
  ModelRegistry registry(RegistryOptions{}, scale_loader());
  const auto add_error = [&](const ModelConfig& config) {
    try {
      registry.add(config);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  ModelConfig config;
  config.name = "a";
  config.model = "scale2";
  config.queue_depth = 0;
  FleetConfig parsed;
  std::string parse_error;
  ASSERT_FALSE(parse_fleet_config(
      R"({"models":[{"name":"a","queue_depth":0}]})", &parsed, &parse_error));
  EXPECT_EQ(add_error(config), parse_error);

  config.queue_depth = 64;
  config.weight = std::nan("");
  EXPECT_NE(add_error(config).find("weight must be > 0"), std::string::npos);
  config.weight = 1.0;
  config.batch = 0;
  EXPECT_NE(add_error(config).find("batch must be >= 1"), std::string::npos);
  EXPECT_EQ(registry.size(), 0) << "nothing invalid was published";
}

// -------------------------------------------------------------- loadgen --

TEST(Arrival, ParsesClosedAndPoisson) {
  ArrivalSpec spec;
  std::string err;
  ASSERT_TRUE(parse_arrival("closed", &spec, &err));
  EXPECT_FALSE(spec.open_loop);
  ASSERT_TRUE(parse_arrival("poisson:120.5", &spec, &err));
  EXPECT_TRUE(spec.open_loop);
  EXPECT_DOUBLE_EQ(spec.rate_rps, 120.5);

  EXPECT_FALSE(parse_arrival("poisson:", &spec, &err));
  EXPECT_FALSE(parse_arrival("poisson:-3", &spec, &err));
  EXPECT_FALSE(parse_arrival("poisson:0", &spec, &err));
  EXPECT_FALSE(parse_arrival("uniform:5", &spec, &err));
  EXPECT_FALSE(parse_arrival("", &spec, &err));
}

TEST(OpenLoop, OffersIndependentArrivalsAndCollectsAll) {
  FleetConfig config = single_tenant_config("open_loop");
  config.models[0].model = "scale2";
  config.models[0].batch = 2;
  FleetServer server(config, FleetOptions{}, scale_loader());

  OpenLoopOptions opts;
  opts.rate_rps = 2000.0;
  opts.duration_ms = 200.0;
  opts.seed = 5;
  const LoadReport report = run_open_loop(
      [&server](TensorMap in) {
        return server.submit("open_loop", std::move(in));
      },
      server.model_entry("open_loop")->compiled.graph, opts);
  server.shutdown();

  // Poisson(2000/s x 0.2s) = 400 expected arrivals; 5 sigma ~ 100.
  EXPECT_GT(report.offered, 250);
  EXPECT_LT(report.offered, 600);
  EXPECT_EQ(report.offered,
            report.completed + report.rejected + report.failed);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.completed, 0);
}

}  // namespace
}  // namespace ramiel::serve::fleet

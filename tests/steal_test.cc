// Work-stealing runtime suite (ctest -L steal; CI also runs it under TSan
// and ASan). The three contracts the subsystem must keep:
//
//   (a) outputs are BIT-identical to the static executor's — same kernels,
//       same inputs, same intra-op width, only the interleaving differs —
//       across random DAGs, the zoo, thread counts and mem-plan on/off
//       (both checked against the sequential oracle, oracle.h);
//   (b) every task runs exactly once with all dependencies honored (the
//       deque never duplicates or drops; checked via per-run task counts
//       and trace events, and by TSan on the whole suite);
//   (c) under forced skew the idle workers actually steal (counters move).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "passes/cluster_merging.h"
#include "passes/linear_clustering.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/steal/deque.h"
#include "rt/steal/steal_executor.h"
#include "rt/steal/task_graph.h"
#include "serve/fleet/fleet_server.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

// ---------------------------------------------------------------------------
// Deque unit tests.

TEST(WorkDeque, OwnerPopsLifoThiefStealsFifo) {
  steal::WorkDeque d;
  d.push(1);
  d.push(2);
  d.push(3);
  std::int32_t t = -1;
  EXPECT_TRUE(d.steal(&t));
  EXPECT_EQ(t, 1);  // thief takes the oldest
  EXPECT_TRUE(d.pop(&t));
  EXPECT_EQ(t, 3);  // owner takes the newest
  EXPECT_TRUE(d.pop(&t));
  EXPECT_EQ(t, 2);
  EXPECT_FALSE(d.pop(&t));
  EXPECT_FALSE(d.steal(&t));
  EXPECT_FALSE(d.maybe_nonempty());
}

TEST(WorkDeque, ConcurrentPopAndStealDeliverEachTaskExactlyOnce) {
  constexpr std::int32_t kTasks = 20000;
  constexpr int kThieves = 3;
  // No capacity up front: the ring grows under the thieves' feet.
  steal::WorkDeque d;

  std::vector<std::atomic<int>> seen(kTasks);
  for (auto& s : seen) s.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      std::int32_t t;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(&t)) seen[static_cast<std::size_t>(t)].fetch_add(1);
      }
      while (d.steal(&t)) seen[static_cast<std::size_t>(t)].fetch_add(1);
    });
  }
  // Owner interleaves pushes with pops, the pattern the executor produces
  // when unlocked successors go straight onto the local deque.
  std::int32_t t;
  for (std::int32_t i = 0; i < kTasks; ++i) {
    d.push(i);
    if (i % 3 == 0 && d.pop(&t)) seen[static_cast<std::size_t>(t)].fetch_add(1);
  }
  while (d.pop(&t)) seen[static_cast<std::size_t>(t)].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (std::thread& th : thieves) th.join();

  for (std::int32_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1)
        << "task " << i << " delivered " << seen[static_cast<std::size_t>(i)]
        << " times";
  }
}

// ---------------------------------------------------------------------------
// Task-graph construction.

TEST(TaskGraph, OneTaskPerNodePerSampleWithDataDeps) {
  Graph g = testing::make_diamond_graph();  // a -> {b, c} -> d
  Hyperclustering hc = testing::hypercluster(g, 2);
  steal::TaskGraph tg = steal::build_task_graph(g, hc, false);
  EXPECT_EQ(tg.size(), static_cast<std::size_t>(g.live_node_count() * 2));
  // Each sample's subgraph: 'a' has no producer deps, d waits on b and c.
  int zero_dep = 0;
  for (std::size_t t = 0; t < tg.size(); ++t) {
    const Node& n = g.node(tg.tasks[t].node);
    if (n.name == "a") {
      EXPECT_EQ(tg.initial_deps[t], 0);
      ++zero_dep;
    }
    if (n.name == "d") {
      EXPECT_EQ(tg.initial_deps[t], 2);
    }
  }
  EXPECT_EQ(zero_dep, 2);
  EXPECT_EQ(tg.seeds.size(), 2u);  // one 'a' per sample
  EXPECT_FALSE(tg.stream_chained);
}

TEST(TaskGraph, ChainingSerializesEachPlannedStream) {
  Graph g = testing::make_chain_graph();
  Hyperclustering hc = testing::hypercluster(g, 2);
  steal::TaskGraph chained = steal::build_task_graph(g, hc, true);
  steal::TaskGraph loose = steal::build_task_graph(g, hc, false);
  EXPECT_TRUE(chained.stream_chained);
  // Chain edges only ever add dependencies, and within one (worker, sample)
  // stream every task except the first has its stream predecessor.
  EXPECT_GE(chained.succ.size(), loose.succ.size());
  std::map<std::pair<int, int>, int> zero_deps_per_stream;
  for (std::size_t t = 0; t < chained.size(); ++t) {
    if (chained.initial_deps[t] == 0) {
      ++zero_deps_per_stream[{chained.tasks[t].home,
                              chained.tasks[t].sample}];
    }
  }
  for (const auto& [stream, count] : zero_deps_per_stream) {
    EXPECT_LE(count, 1) << "stream (" << stream.first << "," << stream.second
                        << ") has " << count << " unchained roots";
  }
}

// ---------------------------------------------------------------------------
// Bit-identity against the static executor.

class StealRandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StealRandomGraphs, BitIdenticalToStaticWithAndWithoutMemPlan) {
  oracle::check(oracle::random_source(GetParam()),
                oracle::cells({.placements = {ExecutorKind::kStatic,
                                              ExecutorKind::kSteal},
                               .arenas = {false, true},
                               .batches = {2}}));
}

TEST_P(StealRandomGraphs, EveryTaskRunsExactlyOnce) {
  PipelineOptions opts;
  opts.generate_code = false;
  opts.batch = 3;
  CompiledModel cm = compile_model(oracle::random_dag(GetParam()), opts);
  auto inputs = testing::example_inputs(cm.graph, opts.batch, GetParam() + 29);

  StealExecutor steal(&cm.graph, cm.hyperclusters, &cm.mem_plan);
  const Profile profile = testing::traced_run(steal, inputs);

  int executed = 0;
  for (const WorkerProfile& w : profile.workers) executed += w.tasks;
  EXPECT_EQ(static_cast<std::size_t>(executed), steal.task_graph().size());

  // Trace spans cover every non-constant (node, sample) exactly once.
  std::map<std::pair<NodeId, int>, int> runs;
  for (const TaskEvent& ev : profile.events) ++runs[{ev.node, ev.sample}];
  for (const auto& [key, count] : runs) EXPECT_EQ(count, 1);
  std::size_t expected = 0;
  for (const steal::StealTask& t : steal.task_graph().tasks) {
    if (cm.graph.node(t.node).kind != OpKind::kConstant) ++expected;
  }
  EXPECT_EQ(runs.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StealRandomGraphs,
                         ::testing::Values(1, 7, 23, 99, 1234));

TEST(StealExecutor, BitIdenticalAcrossThreadCountsOnSqueezenet) {
  oracle::check(oracle::zoo("squeezenet"),
                oracle::cells({.placements = {ExecutorKind::kStatic,
                                              ExecutorKind::kSteal},
                               .rewrites = {oracle::Rewrites::kFold},
                               .batches = {2},
                               .intra_op = {1, 2, 4}}));
}

TEST(StealExecutor, BitIdenticalToStaticAcrossTheZoo) {
  for (const std::string& name : models::model_names()) {
    oracle::check(oracle::zoo(name),
                  oracle::cells({.placements = {ExecutorKind::kStatic,
                                                ExecutorKind::kSteal},
                                 .batches = {2}}));
  }
}

// ---------------------------------------------------------------------------
// Steal activity under forced skew.

/// 1 input -> kChains independent Sigmoid chains, all clustered onto worker
/// 0 by hand; worker 1 gets a single tiny cluster. The only way worker 1
/// ever runs chain work is by stealing it.
TEST(StealExecutor, StealsUnderForcedSkew) {
  constexpr int kChains = 48;
  constexpr int kDepth = 6;
  Graph g("skewed");
  ValueId in = g.add_value("x", Shape{1, 2048});
  g.mark_input(in);
  std::vector<NodeId> all;
  for (int c = 0; c < kChains; ++c) {
    ValueId prev = in;
    for (int d = 0; d < kDepth; ++d) {
      NodeId n =
          g.add_node(OpKind::kSigmoid, str_cat("c", c, "_d", d), {prev});
      all.push_back(n);
      prev = g.node(n).outputs[0];
    }
    g.mark_output(prev);
  }
  infer_shapes(g);
  g.validate();

  // Skewed two-cluster partition: cluster 1 gets one chain, cluster 0 the
  // other 47 — the static placement would leave worker 1 idle ~98% of the
  // run.
  Clustering skew;
  skew.clusters.resize(2);
  for (std::size_t i = 0; i < all.size(); ++i) {
    skew.clusters[i < kDepth ? 1 : 0].nodes.push_back(all[i]);
  }
  sort_clusters_topologically(g, skew);
  finalize_clustering(g, skew);
  Hyperclustering hc = build_hyperclusters(g, skew, 1);

  obs::Counter* steals = obs::registry().counter(
      "ramiel_steal_steals_total",
      "Tasks obtained by stealing from another worker's deque");
  const std::uint64_t before = steals->value();

  StealExecutor steal(&g, std::move(hc));
  auto inputs = testing::example_inputs(g, 1, 3);
  int stolen = 0;
  // Stealing needs the two worker threads to overlap; on a loaded 1-core
  // host one run can theoretically complete before the second thread wakes,
  // so allow a few attempts before declaring the counters dead.
  for (int attempt = 0; attempt < 20 && stolen == 0; ++attempt) {
    Profile profile;
    steal.run(inputs, {}, &profile);
    for (const WorkerProfile& w : profile.workers) stolen += w.tasks_stolen;
  }
  EXPECT_GT(stolen, 0) << "no task was ever stolen under 48:1 skew";
  EXPECT_GE(steals->value(), before + static_cast<std::uint64_t>(stolen));
}

// ---------------------------------------------------------------------------
// The seam: parsing, factory, auto policy.

TEST(ExecutorKind, ParseAndRoundTrip) {
  ExecutorKind kind = ExecutorKind::kAuto;
  EXPECT_TRUE(parse_executor_kind("static", &kind));
  EXPECT_EQ(kind, ExecutorKind::kStatic);
  EXPECT_TRUE(parse_executor_kind("steal", &kind));
  EXPECT_EQ(kind, ExecutorKind::kSteal);
  EXPECT_FALSE(parse_executor_kind("auto", &kind));  // gated by allow_auto
  EXPECT_TRUE(parse_executor_kind("auto", &kind, /*allow_auto=*/true));
  EXPECT_EQ(kind, ExecutorKind::kAuto);
  EXPECT_FALSE(parse_executor_kind("bogus", &kind));
  EXPECT_EQ(kind, ExecutorKind::kAuto);  // untouched on failure
  EXPECT_STREQ(to_string(ExecutorKind::kSteal), "steal");
}

TEST(ExecutorSeam, FactoryBuildsTheRequestedRuntime) {
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g);
  auto stat = make_executor(ExecutorKind::kStatic, &g, hc);
  auto steal = make_executor(ExecutorKind::kSteal, &g, std::move(hc));
  EXPECT_EQ(stat->kind(), ExecutorKind::kStatic);
  EXPECT_EQ(steal->kind(), ExecutorKind::kSteal);
  auto inputs = testing::example_inputs(g, 1, 1);
  oracle::expect_bit_identical(stat->run(inputs), steal->run(inputs));
}

TEST(ExecutorSeam, FactoryStealIsAStealExecutor) {
  // Callers (perfbench's offline workload) tell the placements apart with
  // dynamic_cast, so the factory must build the concrete subclass.
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g);
  auto stat = make_executor(ExecutorKind::kStatic, &g, hc);
  auto steal = make_executor(ExecutorKind::kSteal, &g, std::move(hc));
  EXPECT_EQ(dynamic_cast<StealExecutor*>(stat.get()), nullptr);
  ASSERT_NE(dynamic_cast<StealExecutor*>(steal.get()), nullptr);
  EXPECT_EQ(dynamic_cast<StealExecutor*>(steal.get())->arena_bytes_allocated(),
            0u);
}

TEST(ExecutorSeam, AutoPolicyFollowsClusterCostVariance) {
  PipelineOptions opts;
  opts.generate_code = false;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  EXPECT_GT(cm.cluster_cost_cv, 0.0);

  obs::Gauge* gauge = obs::registry().gauge(
      "ramiel_serve_executor_steal",
      "1 when this model runs the work-stealing executor",
      {{"model", "squeezenet"}});

  // A one-tenant fleet (the ramiel_serve set-up) with executor auto: the
  // registry resolves it against the threshold and publishes the choice.
  serve::fleet::FleetConfig config =
      serve::fleet::single_tenant_config("squeezenet");
  config.models[0].executor = ExecutorKind::kAuto;
  serve::fleet::FleetOptions low;
  low.auto_steal_cv = 0.0;  // any skew at all -> steal
  {
    serve::fleet::FleetServer server(config, low);
    EXPECT_EQ(server.model_entry("squeezenet")->executor,
              ExecutorKind::kSteal);
    EXPECT_EQ(server.report()[0].executor, ExecutorKind::kSteal);
    EXPECT_EQ(gauge->value(), 1.0);
  }

  serve::fleet::FleetOptions high;
  high.auto_steal_cv = 1e9;  // unreachable -> static
  {
    serve::fleet::FleetServer server(config, high);
    EXPECT_EQ(server.model_entry("squeezenet")->executor,
              ExecutorKind::kStatic);
    EXPECT_EQ(gauge->value(), 0.0);
  }
}

}  // namespace
}  // namespace ramiel

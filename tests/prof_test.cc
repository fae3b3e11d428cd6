// Critical-path profiler tests (ctest -L prof): hand-built DAGs with known
// attributions, the sums-to-wall invariant, what-if replay monotonicity,
// static-vs-steal consistency on a real executor, the sim bridge, and
// strict-JSON round-trips of the report.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "obs/json_read.h"
#include "obs/metrics.h"
#include "obs/prof/critical_path.h"
#include "obs/prof/sim_bridge.h"
#include "obs/prof/whatif.h"
#include "rt/executor.h"
#include "rt/steal/steal_executor.h"
#include "sim/simulator.h"
#include "strict_json.h"
#include "test_util.h"

namespace ramiel {
namespace {

// The sums-to-wall invariant, asserted everywhere: the decomposition must
// tile the profiled window exactly (double rounding only).
void expect_sums_to_wall(const prof::CriticalPathReport& r) {
  EXPECT_NEAR(r.compute_ms + r.comm_ms + r.queue_ms + r.idle_ms, r.wall_ms,
              1e-9 + r.wall_ms * 1e-12);
}

// A recorded "producer" that finished after its consumer started must not be
// treated as a start constraint. The steal simulator schedules free-standing
// zero-cost tasks (constants) lazily, so such inversions occur in real sim
// traces — and, unguarded, they send the backward walk into a cycle of
// zero-length gaps (this hung the analyzer on yolo_v5).
TEST(CriticalPath, InvertedProducerIsNotAConstraint) {
  Graph g = testing::make_chain_graph();
  const NodeId a = 0, b = 1, c = 2;

  Profile p;
  p.workers.resize(2);
  p.start_ns = 0;
  p.end_ns = 400'000;
  p.wall_ms = 0.4;
  // c's producer b is recorded as ending after c started: b cannot have
  // bound c's start, so c's wait must fall back to its worker lane (a).
  p.events = {
      {a, 0, /*worker=*/0, 0, 100'000},
      {b, 0, /*worker=*/1, 250'000, 350'000},
      {c, 0, /*worker=*/0, 150'000, 400'000},
  };
  p.workers[0].busy_ns = 350'000;
  p.workers[0].tasks = 2;
  p.workers[1].busy_ns = 100'000;
  p.workers[1].tasks = 1;

  Hyperclustering hc;
  const prof::CriticalPathReport r = prof::analyze(g, hc, p);
  ASSERT_TRUE(r.valid);  // and in particular: the walk terminated
  expect_sums_to_wall(r);
  // Path: c computes [150k,400k], queued behind a on worker 0 [100k,150k],
  // a computes [0,100k]. b never appears as a constraint.
  for (const prof::PathStep& s : r.path) {
    EXPECT_NE(s.node == b && s.kind != prof::Segment::kCompute, true);
  }
  EXPECT_NEAR(r.compute_ms, 0.35, 1e-12);
  EXPECT_NEAR(r.queue_ms, 0.05, 1e-12);
  EXPECT_NEAR(r.comm_ms, 0.0, 1e-12);
}

// Chain a -> b -> c with a on worker 0 and b, c on worker 1. Every gap has
// one unambiguous cause: b waits on a's cross-worker output (comm), c waits
// behind nothing but b's own lane (queue).
TEST(CriticalPath, KnownChainAttribution) {
  Graph g = testing::make_chain_graph();
  const NodeId a = 0, b = 1, c = 2;

  Profile p;
  p.workers.resize(2);
  p.start_ns = 0;
  p.end_ns = 400'000;
  p.wall_ms = 0.4;
  p.events = {
      {a, 0, /*worker=*/0, 0, 100'000},
      {b, 0, /*worker=*/1, 150'000, 250'000},
      {c, 0, /*worker=*/1, 300'000, 400'000},
  };
  p.workers[0].busy_ns = 100'000;
  p.workers[0].tasks = 1;
  p.workers[1].busy_ns = 200'000;
  p.workers[1].tasks = 2;

  Hyperclustering hc;
  const prof::CriticalPathReport r = prof::analyze(g, hc, p);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.tasks, 3);
  EXPECT_EQ(r.path_tasks, 3);
  EXPECT_NEAR(r.wall_ms, 0.4, 1e-12);
  EXPECT_NEAR(r.compute_ms, 0.3, 1e-12);  // 3 x 100us kernels
  EXPECT_NEAR(r.comm_ms, 0.05, 1e-12);    // b behind a, cross-worker
  EXPECT_NEAR(r.queue_ms, 0.05, 1e-12);   // c behind b, same worker
  EXPECT_NEAR(r.idle_ms, 0.0, 1e-12);
  expect_sums_to_wall(r);

  // The waits are attributed to the waiting consumer.
  double b_crit = 0.0, c_crit = 0.0;
  for (const prof::OpAttribution& op : r.ops) {
    if (op.node == b) b_crit = op.critpath_ms;
    if (op.node == c) c_crit = op.critpath_ms;
  }
  EXPECT_NEAR(b_crit, 0.15, 1e-12);  // 100us compute + 50us comm
  EXPECT_NEAR(c_crit, 0.15, 1e-12);  // 100us compute + 50us queue

  // Path steps are chronological and adjacent (the tiling property).
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path.front().begin_ns, 0);
  EXPECT_EQ(r.path.back().end_ns, 400'000);
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    EXPECT_EQ(r.path[i].begin_ns, r.path[i - 1].end_ns);
  }
}

// Leading dead time before the first task is idle, not compute.
TEST(CriticalPath, LeadingGapIsIdle) {
  Graph g = testing::make_chain_graph();
  Profile p;
  p.workers.resize(1);
  p.start_ns = 0;
  p.end_ns = 300'000;
  p.wall_ms = 0.3;
  p.events = {{0, 0, 0, 200'000, 300'000}};
  Hyperclustering hc;
  const prof::CriticalPathReport r = prof::analyze(g, hc, p);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.idle_ms, 0.2, 1e-12);
  EXPECT_NEAR(r.compute_ms, 0.1, 1e-12);
  expect_sums_to_wall(r);
}

// A profile with no events is reported invalid (and all-idle), not garbage.
TEST(CriticalPath, EmptyProfileInvalid) {
  Graph g = testing::make_chain_graph();
  Profile p;
  Hyperclustering hc;
  const prof::CriticalPathReport r = prof::analyze(g, hc, p);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.path_tasks, 0);
}

// Real executors, both runtimes: the invariant must hold on recorded
// wall-clock interleavings, not just hand-built ones, and the critical
// tasks must be actual recorded tasks.
TEST(CriticalPath, ExecutorProfilesSumToWall) {
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g, 2);
  auto inputs = testing::example_inputs(g, 2, 7);

  for (const ExecutorKind kind : {ExecutorKind::kStatic, ExecutorKind::kSteal}) {
    auto exec = make_executor(kind, &g, hc, nullptr);
    const Profile p = testing::traced_run(*exec, inputs);
    ASSERT_FALSE(p.events.empty());

    const prof::CriticalPathReport r = prof::analyze(g, hc, p);
    ASSERT_TRUE(r.valid) << to_string(kind);
    expect_sums_to_wall(r);
    EXPECT_EQ(r.tasks, static_cast<int>(p.events.size()));
    EXPECT_GE(r.path_tasks, 1);
    EXPECT_LE(r.path_tasks, r.tasks);

    std::set<std::pair<NodeId, int>> recorded;
    for (const TaskEvent& e : p.events) recorded.insert({e.node, e.sample});
    for (const auto& task : r.critical_tasks()) {
      EXPECT_TRUE(recorded.count(task)) << to_string(kind);
    }
    // Per-op self time covers every kernel; shares are sane.
    for (const prof::OpAttribution& op : r.ops) {
      EXPECT_GE(op.critpath_share, 0.0);
      EXPECT_LE(op.critpath_share, 1.0 + 1e-9);
      EXPECT_GE(op.path_tasks, 0);
      EXPECT_LE(op.path_tasks, op.tasks);
    }
  }
}

// Static and steal attributions of the *same* virtual-cost DAG must agree
// on the invariant and rank real work: deterministic via the simulator.
TEST(CriticalPath, StaticVsStealSimAttributionConsistent) {
  Graph g = models::build("googlenet");
  Hyperclustering hc = testing::hypercluster(g, 2);
  Rng rng(11);
  CostProfile costs = measure_costs(g, 1, rng);
  SimOptions sim;
  sim.trace = true;

  const SimResult stat = simulate_parallel(g, hc, costs, sim);
  const SimResult steal = simulate_steal(g, hc, costs, sim);
  const prof::CriticalPathReport rs =
      prof::analyze(g, hc, prof::profile_from_sim(stat));
  const prof::CriticalPathReport rt =
      prof::analyze(g, hc, prof::profile_from_sim(steal));
  ASSERT_TRUE(rs.valid);
  ASSERT_TRUE(rt.valid);
  expect_sums_to_wall(rs);
  expect_sums_to_wall(rt);
  EXPECT_EQ(rs.tasks, rt.tasks);  // same executed task set
  EXPECT_NEAR(rs.wall_ms, stat.makespan_ms, stat.makespan_ms * 1e-6);
  EXPECT_NEAR(rt.wall_ms, steal.makespan_ms, steal.makespan_ms * 1e-6);

  // Both runtimes must agree on where the kernel time is (self ranking is
  // placement-independent); compare the top self-time op.
  const auto top_self = [](const prof::CriticalPathReport& r) {
    NodeId best = kNoNode;
    double best_ms = -1.0;
    for (const prof::OpAttribution& op : r.ops) {
      if (op.self_ms > best_ms) {
        best_ms = op.self_ms;
        best = op.node;
      }
    }
    return best;
  };
  EXPECT_EQ(top_self(rs), top_self(rt));
}

// What-if replay: more workers never hurt on an independent task bag, and
// speeding a node up never slows the replay down (simple DAGs only —
// greedy list scheduling has Graham anomalies on adversarial ones).
TEST(WhatIf, ReplayMonotonicity) {
  Graph g("bag");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) {
    NodeId n = g.add_node(OpKind::kRelu, "t" + std::to_string(i), {in});
    g.mark_output(g.node(n).outputs[0]);
    nodes.push_back(n);
  }
  infer_shapes(g);

  Profile p;
  p.workers.resize(2);
  p.start_ns = 0;
  p.end_ns = 800'000;
  p.wall_ms = 0.8;
  for (int i = 0; i < 8; ++i) {
    const int w = i % 2;
    const std::int64_t s = (i / 2) * 200'000;
    p.events.push_back({nodes[static_cast<std::size_t>(i)], 0, w, s,
                        s + 190'000});
  }

  const prof::RecordedDag dag = prof::build_recorded_dag(g, p, {});
  ASSERT_EQ(dag.tasks.size(), 8u);
  double prev = prof::replay_ms(dag, 1);
  EXPECT_GT(prev, 0.0);
  for (int workers = 2; workers <= 8; workers *= 2) {
    const double cur = prof::replay_ms(dag, workers);
    EXPECT_LE(cur, prev + 1e-9) << workers << " workers";
    prev = cur;
  }
  // 8 independent equal tasks on 8 workers: perfectly parallel.
  EXPECT_NEAR(prof::replay_ms(dag, 8), 0.19, 1e-9);

  // Speeding up any node is never worse, and 2x'ing every node halves it.
  const double base = prof::replay_ms(dag, 2);
  for (const NodeId n : nodes) {
    EXPECT_LE(prof::replay_node_speedup_ms(dag, 2, n, 2.0), base + 1e-9);
  }
  std::vector<double> half(dag.tasks.size(), 0.5);
  EXPECT_NEAR(prof::replay_ms(dag, 2, &half), base / 2.0, 1e-9);
}

TEST(WhatIf, ChainSpeedupMatchesExactly) {
  // On a chain the replay is exact: makespan = sum of durations, and 2x on
  // one node removes exactly half that node's time.
  Graph g = testing::make_chain_graph();
  Profile p;
  p.workers.resize(1);
  p.start_ns = 0;
  p.end_ns = 600'000;
  p.wall_ms = 0.6;
  p.events = {{0, 0, 0, 0, 100'000},
              {1, 0, 0, 100'000, 400'000},
              {2, 0, 0, 400'000, 600'000}};
  const prof::RecordedDag dag = prof::build_recorded_dag(g, p, {});
  EXPECT_NEAR(prof::replay_ms(dag, 1), 0.6, 1e-9);
  EXPECT_NEAR(prof::replay_node_speedup_ms(dag, 1, 1, 2.0), 0.45, 1e-9);
  EXPECT_NEAR(prof::replay_node_speedup_ms(dag, 1, 1, 3.0), 0.4, 1e-9);
}

// The analyzer's what-if battery against the simulator on a zoo model —
// the bench's cross-check in miniature, as a regression test.
TEST(WhatIf, AgreesWithSimulatorOnZooModel) {
  Graph g = models::build("squeezenet");
  Hyperclustering hc = testing::hypercluster(g, 2);
  Rng rng(3);
  CostProfile costs = measure_costs(g, 1, rng);
  SimOptions sim;
  sim.trace = true;
  const SimResult base = simulate_steal(g, hc, costs, sim);

  prof::AnalyzeOptions opts;
  opts.what_if_ops = 1;
  opts.comm_fixed_ns = sim.machine.comm_fixed_us * 1e3;
  opts.comm_ns_per_byte = sim.machine.comm_per_kb_us * 1e3 / 1024.0;
  const prof::CriticalPathReport r =
      prof::analyze(g, hc, prof::profile_from_sim(base), opts);
  ASSERT_TRUE(r.valid);
  ASSERT_FALSE(r.ops.empty());
  ASSERT_FALSE(r.what_ifs.empty());

  CostProfile faster = costs;
  faster.node_us[static_cast<std::size_t>(r.ops.front().node)] /= 2.0;
  const SimResult truth = simulate_steal(g, hc, faster, sim);
  const double actual = base.makespan_ms / truth.makespan_ms;
  const double predicted = r.what_ifs.front().speedup;
  EXPECT_NEAR(predicted, actual, actual * 0.15);
}

// The acceptance bar, verbatim: on every zoo model the decomposition sums
// to the simulated wall time. Synthetic per-node costs keep this fast (the
// tiling invariant is structural — it cannot depend on what the numbers
// are), and both the static and steal simulation modes are covered.
TEST(CriticalPath, DecompositionSumsToWallAcrossZoo) {
  for (const std::string& name : models::model_names()) {
    SCOPED_TRACE(name);
    Graph g = models::build(name);
    Hyperclustering hc = testing::hypercluster(g, 2);
    CostProfile costs;
    costs.node_us.assign(g.nodes().size(), 0.0);
    costs.value_bytes.assign(g.values().size(), 0.0);
    for (const Node& n : g.nodes()) {
      if (!n.dead && n.kind != OpKind::kConstant) {
        costs.node_us[static_cast<std::size_t>(n.id)] =
            5.0 + static_cast<double>(n.id % 13);
      }
    }
    for (const Value& v : g.values()) {
      costs.value_bytes[static_cast<std::size_t>(v.id)] =
          4.0 * static_cast<double>(std::max<std::int64_t>(1, v.shape.numel()));
    }
    SimOptions sim;
    sim.trace = true;
    prof::AnalyzeOptions opts;
    opts.keep_path = false;
    opts.what_if = false;
    for (const bool steal : {false, true}) {
      const SimResult res = steal ? simulate_steal(g, hc, costs, sim)
                                  : simulate_parallel(g, hc, costs, sim);
      const prof::CriticalPathReport r =
          prof::analyze(g, hc, prof::profile_from_sim(res), opts);
      ASSERT_TRUE(r.valid);
      expect_sums_to_wall(r);
      EXPECT_NEAR(r.wall_ms, res.makespan_ms, res.makespan_ms * 0.02);
    }
  }
}

TEST(CriticalPathReport, StrictJsonRoundTrip) {
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g, 2);
  auto inputs = testing::example_inputs(g, 2, 5);
  auto exec = make_executor(ExecutorKind::kStatic, &g, hc, nullptr);
  const Profile p = testing::traced_run(*exec, inputs);

  const prof::CriticalPathReport r = prof::analyze(g, hc, p);
  const std::string json = r.to_json();
  EXPECT_TRUE(testutil::strictly_valid(json));

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json, &doc, &error)) << error;
  EXPECT_NEAR(doc.number_or("wall_ms", -1.0), r.wall_ms, 1e-9);
  EXPECT_NEAR(doc.number_or("compute_ms", -1.0) +
                  doc.number_or("comm_ms", -1.0) +
                  doc.number_or("queue_ms", -1.0) +
                  doc.number_or("idle_ms", -1.0),
              r.wall_ms, 1e-6);
  const obs::JsonValue* ops = doc.find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->array.size(), r.ops.size());
  EXPECT_FALSE(r.summary().empty());
}

TEST(CriticalPathReport, PublishExportsGauges) {
  Graph g = testing::make_chain_graph();
  Profile p;
  p.workers.resize(1);
  p.start_ns = 0;
  p.end_ns = 100'000;
  p.wall_ms = 0.1;
  p.events = {{0, 0, 0, 0, 100'000}};
  Hyperclustering hc = testing::hypercluster(g);
  const prof::CriticalPathReport r = prof::analyze(g, hc, p);

  obs::Registry reg;
  prof::publish(r, &reg);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("ramiel_critpath_compute_ms"), std::string::npos);
  EXPECT_NE(prom.find("ramiel_critpath_comm_ms"), std::string::npos);
  EXPECT_NE(prom.find("ramiel_critpath_queue_ms"), std::string::npos);
  EXPECT_NE(prom.find("ramiel_critpath_idle_ms"), std::string::npos);
  EXPECT_NE(prom.find("ramiel_critpath_cluster_share"), std::string::npos);
}

}  // namespace
}  // namespace ramiel

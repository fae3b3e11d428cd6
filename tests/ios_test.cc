
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sched/ios.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// Stages must respect dependences: a node's predecessors appear in
/// strictly earlier stages.
void expect_valid_stages(const Graph& g, const IosSchedule& s) {
  std::vector<int> stage_of(g.nodes().size(), -1);
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    for (NodeId id : s.stages[i]) {
      EXPECT_EQ(stage_of[static_cast<std::size_t>(id)], -1);
      stage_of[static_cast<std::size_t>(id)] = static_cast<int>(i);
    }
  }
  int covered = 0;
  for (const Node& n : g.nodes()) {
    if (n.dead) continue;
    ASSERT_NE(stage_of[static_cast<std::size_t>(n.id)], -1) << n.name;
    ++covered;
    for (NodeId p : g.predecessors(n.id)) {
      EXPECT_LT(stage_of[static_cast<std::size_t>(p)],
                stage_of[static_cast<std::size_t>(n.id)]);
    }
  }
  EXPECT_EQ(covered, g.live_node_count());
}

TEST(Ios, ChainIsOneOpPerStage) {
  Graph g = testing::make_chain_graph();
  CostProfile p = testing::uniform_profile(g, 10.0);
  IosSchedule s = ios_schedule(g, p);
  EXPECT_EQ(s.stages.size(), 3u);
  expect_valid_stages(g, s);
}

TEST(Ios, DiamondPacksBranchesIntoOneStage) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 10.0);
  IosSchedule s = ios_schedule(g, p);
  expect_valid_stages(g, s);
  // Optimal: {a}, {b, c}, {d} — three stages.
  EXPECT_EQ(s.stages.size(), 3u);
  bool found_pair = false;
  for (const auto& stage : s.stages) {
    if (stage.size() == 2) found_pair = true;
  }
  EXPECT_TRUE(found_pair);
}

TEST(Ios, MakespanBeatsSequentialOnParallelGraph) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  IosOptions opts;
  opts.machine.per_task_overhead_us = 0.0;
  IosSchedule s = ios_schedule(g, p, opts);
  EXPECT_NEAR(s.makespan_ms, 0.3, 1e-6);  // 3 stages x 100us
}

TEST(Ios, StageWidthPruningRespected) {
  // 6 independent relus from one source; width cap 2.
  Graph g("wide");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  std::vector<ValueId> outs;
  for (int i = 0; i < 6; ++i) {
    NodeId n = g.add_node(OpKind::kRelu, str_cat("r", i), {in});
    outs.push_back(g.node(n).outputs[0]);
  }
  for (ValueId o : outs) g.mark_output(o);
  CostProfile p = testing::uniform_profile(g, 10.0);
  IosOptions opts;
  opts.max_stage_width = 2;
  IosSchedule s = ios_schedule(g, p, opts);
  expect_valid_stages(g, s);
  for (const auto& stage : s.stages) {
    EXPECT_LE(stage.size(), 2u);
  }
}

TEST(Ios, BudgetExhaustionFallsBackGreedy) {
  Graph g = models::build("squeezenet");
  Rng rng(1);
  CostProfile p = measure_costs(g, 1, rng);
  IosOptions opts;
  opts.max_states = 10;  // absurdly small
  IosSchedule s = ios_schedule(g, p, opts);
  EXPECT_TRUE(s.budget_exhausted);
  expect_valid_stages(g, s);
}

TEST(Ios, CompileTimeGrowsWithGraphSize) {
  Rng rng(2);
  Graph small = models::build("squeezenet");
  Graph big = models::build("inception_v3");
  CostProfile ps = measure_costs(small, 1, rng);
  CostProfile pb = measure_costs(big, 1, rng);
  IosOptions opts;
  opts.max_states = 20000;
  IosSchedule s1 = ios_schedule(small, ps, opts);
  IosSchedule s2 = ios_schedule(big, pb, opts);
  EXPECT_GT(s2.states_explored + s2.compile_seconds,
            0.0);  // sanity: it ran
  EXPECT_GE(s2.states_explored, s1.states_explored / 10);
  expect_valid_stages(small, s1);
  expect_valid_stages(big, s2);
}

TEST(IosStageLatency, MaxOfMembersPlusBarrier) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 0.0);
  p.node_us[1] = 100.0;
  p.node_us[2] = 40.0;
  MachineModel m;
  m.per_task_overhead_us = 5.0;
  const double lat = ios_stage_latency_us(g, p, {1, 2}, m);
  // max(100+5, 40+5) + barrier 5 = 110.
  EXPECT_DOUBLE_EQ(lat, 110.0);
}

TEST(IosStageLatency, WideStagePaysContention) {
  Graph g("wide");
  ValueId in = g.add_value("x", Shape{1});
  g.mark_input(in);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 24; ++i) {
    nodes.push_back(g.add_node(OpKind::kRelu, str_cat("r", i), {in}));
  }
  for (NodeId n : nodes) g.mark_output(g.node(n).outputs[0]);
  CostProfile p = testing::uniform_profile(g, 100.0);
  MachineModel m;
  m.per_task_overhead_us = 0.0;
  m.cores = 12;
  const double lat = ios_stage_latency_us(g, p, nodes, m);
  EXPECT_DOUBLE_EQ(lat, 200.0);  // 24 ops on 12 cores -> 2x
}

}  // namespace
}  // namespace ramiel

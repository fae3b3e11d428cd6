#include <gtest/gtest.h>

#include "models/zoo.h"
#include "passes/linear_clustering.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// Machine model with zero overheads — makespans depend only on kernel
/// times, which makes schedule arithmetic exactly checkable.
MachineModel free_machine() {
  MachineModel m;
  m.per_task_overhead_us = 0.0;
  m.comm_fixed_us = 0.0;
  m.comm_per_kb_us = 0.0;
  return m;
}

TEST(Simulator, SequentialIsSumOfCosts) {
  Graph g = testing::make_chain_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  EXPECT_DOUBLE_EQ(simulate_sequential_ms(g, p, 1, opts), 0.3);
  EXPECT_DOUBLE_EQ(simulate_sequential_ms(g, p, 4, opts), 1.2);
}

TEST(Simulator, ChainParallelEqualsSequential) {
  Graph g = testing::make_chain_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  EXPECT_NEAR(r.makespan_ms, 0.3, 1e-9);
}

TEST(Simulator, DiamondOverlapsBranches) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  // a, then b||c, then d: 3 steps of 100us instead of 4.
  EXPECT_NEAR(r.makespan_ms, 0.3, 1e-9);
  EXPECT_LT(r.makespan_ms, simulate_sequential_ms(g, p, 1, opts));
}

TEST(Simulator, CommCostsDelayRemoteConsumers) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  opts.machine.comm_fixed_us = 1000.0;  // dwarfs compute
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  // The cross-cluster hop a->c->d costs two messages of 1ms.
  EXPECT_GT(r.makespan_ms, 2.0);
}

TEST(Simulator, PerTaskOverheadCharged) {
  Graph g = testing::make_chain_graph();
  CostProfile p = testing::uniform_profile(g, 0.0);
  SimOptions opts;
  opts.machine = free_machine();
  opts.machine.per_task_overhead_us = 50.0;
  EXPECT_DOUBLE_EQ(simulate_sequential_ms(g, p, 1, opts), 0.15);
}

TEST(Simulator, SlackAccountedOnBlockedWorkers) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  // The side-branch worker waits for a's output (100us), then its output is
  // consumed later; total slack > 0.
  EXPECT_GT(r.total_slack_ms(), 0.0);
}

TEST(Simulator, IntraOpThreadsShortenParallelizableKernels) {
  MachineModel m = free_machine();
  const double serial = m.kernel_us(1000.0, 1, 1, true);
  const double threaded = m.kernel_us(1000.0, 4, 1, true);
  EXPECT_LT(threaded, serial);
  // Non-parallelizable kernels don't speed up.
  EXPECT_DOUBLE_EQ(m.kernel_us(1000.0, 4, 1, false), 1000.0);
}

TEST(Simulator, OversubscriptionAddsPenalty) {
  MachineModel m = free_machine();
  // 20 workers x 4 threads on 12 cores.
  EXPECT_GT(m.kernel_us(1000.0, 4, 20, false), 1000.0);
  // Within budget: no penalty.
  EXPECT_DOUBLE_EQ(m.kernel_us(1000.0, 1, 4, false), 1000.0);
}

TEST(Simulator, IntraOpEffectivenessCappedByCoreShare) {
  MachineModel m = free_machine();
  m.intra_op_parallel_fraction = 1.0;
  // 6 workers on 12 cores -> 2 effective threads each even if asked for 8
  // (modulo the oversubscription penalty, zero here at demand 12... 6*8=48
  // demand > 12 cores adds the penalty; compare against 2-thread value).
  const double asked8 = m.kernel_us(1200.0, 8, 6, true);
  const double asked2 = m.kernel_us(1200.0, 2, 6, true);
  EXPECT_GE(asked8, asked2);  // more threads cannot beat the core share
}

TEST(Simulator, TraceEventsCoverAllTasks) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 10.0);
  SimOptions opts;
  opts.machine = free_machine();
  opts.trace = true;
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  EXPECT_EQ(r.events.size(), 4u);
}

TEST(Simulator, HyperclusterBatchScalesWork) {
  Graph g = models::build("squeezenet");
  Rng rng(3);
  CostProfile p = measure_costs(g, 1, rng);
  SimOptions opts;
  Clustering c = testing::cluster(g);
  auto hc1 = build_hyperclusters(g, c, 1);
  auto hc4 = build_hyperclusters(g, c, 4);
  SimResult r1 = simulate_parallel(g, hc1, p, opts);
  SimResult r4 = simulate_parallel(g, hc4, p, opts);
  // Batch 4 must cost clearly more than batch 1 but less than 4 back-to-back
  // runs. The lower bound is deliberately below 2x: measured conv costs are
  // small relative to fixed per-edge communication, so hypercluster
  // slack-filling absorbs a large share of the extra samples.
  EXPECT_GT(r4.makespan_ms, r1.makespan_ms * 1.5);
  EXPECT_LT(r4.makespan_ms, r1.makespan_ms * 8.0);
}

TEST(Simulator, BatchedHyperclusterBeatsBackToBackRuns) {
  // The slack-filling claim of §III-E: batch-4 hyperclustered makespan is
  // below 4x the batch-1 parallel makespan.
  Graph g = models::build("squeezenet");
  Rng rng(4);
  CostProfile p = measure_costs(g, 1, rng);
  SimOptions opts;
  Clustering c = testing::cluster(g);
  SimResult r1 = simulate_parallel(g, build_hyperclusters(g, c, 1), p, opts);
  SimResult r4 = simulate_parallel(g, build_hyperclusters(g, c, 4), p, opts);
  EXPECT_LT(r4.makespan_ms, 4.0 * r1.makespan_ms);
}

TEST(MeasureCosts, ProducesPositiveCostsAndSizes) {
  Graph g = testing::make_diamond_graph();
  Rng rng(5);
  CostProfile p = measure_costs(g, 2, rng);
  EXPECT_GT(p.total_us, 0.0);
  for (const Node& n : g.nodes()) {
    if (n.dead || n.kind == OpKind::kConstant) continue;
    EXPECT_GE(p.node_us[static_cast<std::size_t>(n.id)], 0.0);
    for (ValueId ov : n.outputs) {
      EXPECT_GT(p.value_bytes[static_cast<std::size_t>(ov)], 0.0);
    }
  }
}

TEST(MeasureCosts, KernelParallelizabilityTable) {
  EXPECT_TRUE(kernel_is_parallelizable(OpKind::kConv2d));
  EXPECT_TRUE(kernel_is_parallelizable(OpKind::kMatMul));
  EXPECT_FALSE(kernel_is_parallelizable(OpKind::kRelu));
  EXPECT_FALSE(kernel_is_parallelizable(OpKind::kConcat));
}


TEST(Energy, SequentialBurnsOneActiveCore) {
  MachineModel m;
  m.active_power_w = 10.0;
  // 100 ms on one active core at 10 W = 1 J = 1000 mJ.
  EXPECT_DOUBLE_EQ(sequential_energy_mj(100.0, m), 1000.0);
}

TEST(Energy, ParallelChargesIdleWorkers) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  SimOptions opts;
  opts.machine = free_machine();
  opts.machine.active_power_w = 10.0;
  opts.machine.idle_power_w = 1.0;
  auto hc = testing::hypercluster(g);
  SimResult r = simulate_parallel(g, hc, p, opts);
  // Worker 0: 3 tasks busy (300us); worker 1: 1 task busy, rest idle.
  // makespan 300us. Energy = (0.3ms*10 + 0) + (0.1ms*10 + 0.2ms*1) mJ/ms...
  const double expected =
      (0.3 * 10.0) + (0.1 * 10.0 + 0.2 * 1.0);  // ms * W = uJ*1e3 -> mJ
  EXPECT_NEAR(r.energy_mj(opts.machine), expected, 1e-9);
}

TEST(Energy, MoreWorkersMeansMoreIdleEnergy) {
  Graph g = models::build("googlenet");
  Rng rng(9);
  CostProfile p = measure_costs(g, 1, rng);
  SimOptions opts;
  auto merged = testing::cluster(g);
  SimResult par = simulate_parallel(g, build_hyperclusters(g, merged, 1), p,
                                    opts);
  const double seq = simulate_sequential_ms(g, p, 1, opts);
  // Parallel spends at least as much energy as sequential (race-to-idle
  // cannot win here because idle power is nonzero and utilization < 100%).
  EXPECT_GE(par.energy_mj(opts.machine),
            sequential_energy_mj(seq, opts.machine) * 0.99);
}

}  // namespace
}  // namespace ramiel

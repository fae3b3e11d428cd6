#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sched/list_scheduler.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(ListScheduler, ChainStaysOnOneWorker) {
  Graph g = testing::make_chain_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  MachineModel m;
  auto r = list_schedule(g, p, m, 4);
  EXPECT_EQ(r.clustering.size(), 1);
  EXPECT_NEAR(r.makespan_ms,
              3 * (100.0 + m.per_task_overhead_us) / 1e3, 1e-6);
}

TEST(ListScheduler, DiamondUsesSecondWorkerWhenCommIsCheap) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 1000.0);
  MachineModel m;
  m.comm_fixed_us = 1.0;
  m.comm_per_kb_us = 0.0;
  m.per_task_overhead_us = 0.0;
  auto r = list_schedule(g, p, m, 2);
  EXPECT_EQ(r.clustering.size(), 2);
  // Roughly 3 levels of 1ms.
  EXPECT_LT(r.makespan_ms, 3.2);
}

TEST(ListScheduler, ExpensiveCommKeepsWorkLocal) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 10.0);
  MachineModel m;
  m.comm_fixed_us = 100000.0;  // prohibitive
  m.per_task_overhead_us = 0.0;
  auto r = list_schedule(g, p, m, 4);
  EXPECT_EQ(r.clustering.size(), 1);  // everything placed on one worker
}

TEST(ListScheduler, PartitionIsValidOnModels) {
  MachineModel m;
  for (const std::string name : {"squeezenet", "googlenet"}) {
    Graph g = models::build(name);
    Rng rng(1);
    CostProfile p = measure_costs(g, 1, rng);
    auto r = list_schedule(g, p, m, 4);
    EXPECT_NO_THROW(finalize_clustering(g, r.clustering));
    EXPECT_GT(r.makespan_ms, 0.0);
  }
}

TEST(ListScheduler, SingleWorkerMatchesSequentialSum) {
  Graph g = testing::make_diamond_graph();
  CostProfile p = testing::uniform_profile(g, 100.0);
  MachineModel m;
  m.per_task_overhead_us = 0.0;
  auto r = list_schedule(g, p, m, 1);
  EXPECT_NEAR(r.makespan_ms, 0.4, 1e-9);
}

}  // namespace
}  // namespace ramiel

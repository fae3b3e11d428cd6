// SimulatorPins (ctest -L sim): simulate_parallel and simulate_steal
// makespans and per-worker task and message counts on the 8 zoo models,
// pinned. The profile is deterministic (node_us = the node's static weight,
// value_bytes = 4 x numel) and the MachineModel is the default (the CPython
// model the paper tables use), so the figures move only when the schedule
// engine (sim/schedule.h), the machine model, a front-end's task list or a
// clustering pass does, and such a move must be deliberate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/cost_model.h"
#include "models/zoo.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ramiel {
namespace {

struct Pin {
  const char* model;
  double parallel_ms;
  double steal_ms;
  std::vector<int> parallel_tasks;
  std::vector<int> parallel_messages;
  std::vector<int> steal_tasks;
};

enum class Mode { kBatch1, kBatch4, kSwitchedBatch4 };

CostProfile weight_profile(const Graph& g) {
  CostProfile p;
  p.node_us.assign(g.nodes().size(), 0.0);
  p.value_bytes.assign(g.values().size(), 0.0);
  for (const Node& n : g.nodes()) {
    p.node_us[static_cast<std::size_t>(n.id)] =
        static_cast<double>(node_weight(n));
  }
  for (const Value& v : g.values()) {
    p.value_bytes[static_cast<std::size_t>(v.id)] =
        4.0 * static_cast<double>(v.shape.numel());
  }
  return p;
}

std::vector<int> counts(const SimResult& r, bool messages) {
  std::vector<int> out;
  for (const SimWorkerStats& w : r.workers) {
    out.push_back(messages ? w.messages_sent : w.tasks);
  }
  return out;
}

void expect_pins(Mode mode, const std::vector<Pin>& pins) {
  ASSERT_EQ(pins.size(), models::model_names().size());
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.model);
    Graph g = models::build(pin.model);
    const Clustering c = testing::cluster(g);
    const Hyperclustering hc =
        mode == Mode::kBatch1   ? build_hyperclusters(g, c, 1)
        : mode == Mode::kBatch4 ? build_hyperclusters(g, c, 4)
                                : build_switched_hyperclusters(g, c, 4);
    const CostProfile profile = weight_profile(g);
    const SimResult par = simulate_parallel(g, hc, profile);
    const SimResult steal = simulate_steal(g, hc, profile);
    EXPECT_NEAR(par.makespan_ms, pin.parallel_ms, pin.parallel_ms * 1e-9);
    EXPECT_NEAR(steal.makespan_ms, pin.steal_ms, pin.steal_ms * 1e-9);
    EXPECT_EQ(counts(par, false), pin.parallel_tasks);
    EXPECT_EQ(counts(par, true), pin.parallel_messages);
    EXPECT_EQ(counts(steal, false), pin.steal_tasks);
    // The steal placement has no messages: its cross-worker reads are
    // charged as comm delay only.
    EXPECT_EQ(counts(steal, true), std::vector<int>(hc.workers.size(), 0));
  }
}

TEST(SimulatorPins, Batch1) {
  expect_pins(Mode::kBatch1, {
      {"squeezenet", 5.8746562500000001, 15.680468749999999,
       {50, 16},
       {8, 8},
       {33, 33}},
      {"googlenet", 6.8347499999999997, 18.766796875000001,
       {61, 36, 27, 18},
       {27, 9, 9, 9},
       {43, 39, 30, 30}},
      {"inception_v3", 7.5464374999999997, 40.645468749999999,
       {125, 47, 27, 33},
       {23, 8, 8, 7},
       {64, 54, 54, 60}},
      {"inception_v4", 11.85959375, 63.061750000000004,
       {183, 75, 42, 51},
       {35, 12, 12, 11},
       {82, 109, 79, 81}},
      {"yolo_v5", 8.6391868750000018, 47.258321406250111,
       {145, 22, 14, 20, 8, 8, 6, 6, 4, 6, 2, 2, 2, 2, 2, 2, 2, 2},
       {12, 7, 8, 6, 4, 4, 4, 2, 4, 4, 2, 2, 2, 2, 2, 2, 2, 2},
       {13, 13, 12, 17, 12, 21, 19, 28, 12, 12, 12, 12, 12, 12, 12, 12, 12,
        12}},
      {"retinanet", 11.378331718749982, 89.993042239583616,
       {246, 27, 17, 16, 15, 15, 14, 14, 14, 14, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
       {9, 9, 3, 2, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
       {20, 40, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 19, 19,
        19, 19}},
      {"bert", 38.922269531250002, 181.9573203125,
       {592, 111, 82, 72},
       {24, 45, 40, 36},
       {204, 193, 279, 181}},
      {"nasnet", 22.296574218749999, 89.347550781250007,
       {313, 149, 107, 104, 132, 150, 117, 103, 110, 116},
       {68, 42, 27, 27, 44, 44, 24, 24, 33, 41},
       {141, 151, 145, 129, 150, 146, 148, 132, 131, 128}},
  });
}

TEST(SimulatorPins, Batch4) {
  expect_pins(Mode::kBatch4, {
      {"squeezenet", 9.1176562499999996, 4.226,
       {200, 64},
       {32, 32},
       {132, 132}},
      {"googlenet", 11.10075, 4.6109999999999998,
       {244, 144, 108, 72},
       {108, 36, 36, 36},
       {142, 142, 142, 142}},
      {"inception_v3", 16.94396875, 7.7190000000000003,
       {500, 188, 108, 132},
       {92, 32, 32, 28},
       {232, 232, 232, 232}},
      {"inception_v4", 25.336749999999999, 11.718,
       {732, 300, 168, 204},
       {140, 48, 48, 44},
       {351, 351, 351, 351}},
      {"yolo_v5", 18.959023437500164, 46.908401406250107,
       {580, 88, 56, 80, 32, 32, 24, 24, 16, 24, 8, 8, 8, 8, 8, 8, 8, 8},
       {48, 28, 32, 24, 16, 16, 16, 8, 16, 16, 8, 8, 8, 8, 8, 8, 8, 8},
       {51, 51, 86, 51, 49, 49, 77, 48, 49, 48, 112, 48, 64, 48, 47, 48, 47,
        47}},
      {"retinanet", 31.993491718749915, 85.815883906250292,
       {984, 108, 68, 64, 60, 60, 56, 56, 56, 56, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
       {36, 36, 12, 8, 4, 0, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
       {75, 73, 85, 76, 151, 84, 75, 73, 86, 77, 75, 71, 83, 74, 84, 78, 88, 78,
        84, 78}},
      {"bert", 133.216234375, 42.774000000000001,
       {2368, 444, 328, 288},
       {96, 180, 160, 144},
       {1145, 761, 761, 761}},
      {"nasnet", 43.380046874999998, 34.825785156249999,
       {1252, 596, 428, 416, 528, 600, 468, 412, 440, 464},
       {272, 168, 108, 108, 176, 176, 96, 96, 132, 164},
       {522, 526, 517, 538, 631, 499, 574, 591, 621, 585}},
  });
}

TEST(SimulatorPins, SwitchedBatch4) {
  expect_pins(Mode::kSwitchedBatch4, {
      {"squeezenet", 6.9556562499999997, 4.226,
       {132, 132},
       {32, 32},
       {132, 132}},
      {"googlenet", 8.2567500000000003, 4.6109999999999998,
       {142, 142, 142, 142},
       {54, 54, 54, 54},
       {142, 142, 142, 142}},
      {"inception_v3", 9.9758125, 7.7190000000000003,
       {232, 232, 232, 232},
       {46, 46, 46, 46},
       {232, 232, 232, 232}},
      {"inception_v4", 15.541593750000001, 11.718,
       {351, 351, 351, 351},
       {70, 70, 70, 70},
       {351, 351, 351, 351}},
      {"yolo_v5", 9.0557334375000043, 47.289361406250109,
       {201, 64, 50, 42, 28, 24, 22, 18, 14, 12, 8, 8, 8, 8, 8, 151, 171, 183},
       {33, 25, 22, 18, 14, 14, 14, 12, 12, 10, 8, 8, 8, 8, 8, 18, 23, 29},
       {63, 61, 60, 94, 59, 50, 52, 49, 56, 54, 48, 58, 47, 56, 56, 56, 55,
        46}},
      {"retinanet", 12.692245052083308, 86.104235572916963,
       {306, 75, 63, 60, 58, 57, 56, 44, 32, 20, 8, 8, 8, 8, 8, 8, 8, 252, 277,
        292},
       {23, 15, 6, 4, 3, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 15, 22, 23},
       {76, 142, 90, 73, 91, 76, 69, 82, 76, 75, 69, 75, 83, 75, 84, 75, 83, 81,
        90, 83}},
      {"bert", 52.972234374999999, 43.418011718750002,
       {857, 857, 857, 857},
       {145, 145, 145, 145},
       {953, 761, 952, 762}},
      {"nasnet", 30.138375, 38.248855468750001,
       {673, 492, 493, 503, 502, 480, 446, 642, 688, 685},
       {164, 140, 142, 139, 136, 125, 122, 166, 184, 178},
       {553, 553, 649, 585, 508, 551, 553, 521, 546, 585}},
  });
}

}  // namespace
}  // namespace ramiel

#include <set>

#include <gtest/gtest.h>

#include "graph/shape_inference.h"
#include "passes/constant_folding.h"
#include "models/zoo.h"
#include "passes/analysis.h"
#include "ramiel/pipeline.h"
#include "support/check.h"

namespace ramiel {
namespace {

class AllModels : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModels, BuildsAndValidates) {
  Graph g = models::build(GetParam());
  EXPECT_NO_THROW(g.validate());
  EXPECT_GT(g.live_node_count(), 50);
  EXPECT_FALSE(g.inputs().empty());
  EXPECT_FALSE(g.outputs().empty());
}

TEST_P(AllModels, BuildIsDeterministic) {
  Graph a = models::build(GetParam());
  Graph b = models::build(GetParam());
  EXPECT_EQ(a.live_node_count(), b.live_node_count());
  EXPECT_EQ(a.values().size(), b.values().size());
  // Weight payloads identical (seeded RNG).
  for (const Value& v : a.values()) {
    if (!v.is_constant()) continue;
    ValueId bv = b.find_value(v.name);
    ASSERT_GE(bv, 0);
    EXPECT_TRUE(allclose(*v.const_data, *b.value(bv).const_data));
  }
}

TEST_P(AllModels, ShapesAreStaticAfterFolding) {
  // Raw graphs may carry dynamic (shape-computed) reshapes; after constant
  // folding every conv/matmul input shape must be statically known.
  Graph g = models::build(GetParam());
  constant_propagation_dce(g);
  infer_shapes(g);
  for (const Node& n : g.nodes()) {
    if (n.dead) continue;
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kMatMul) {
      for (ValueId v : n.inputs) {
        EXPECT_TRUE(g.value(v).shape.rank() > 0 || g.value(v).is_constant())
            << g.name() << ": " << n.name << " input '" << g.value(v).name
            << "' has unknown shape";
      }
    }
  }
}

TEST_P(AllModels, ParallelismFactorIsPositive) {
  Graph g = models::build(GetParam());
  auto rep = analyze_parallelism(g);
  EXPECT_GT(rep.parallelism, 0.3);
  EXPECT_LT(rep.parallelism, 10.0);
  EXPECT_GT(rep.critical_path, 0);
}

INSTANTIATE_TEST_SUITE_P(Zoo, AllModels,
                         ::testing::ValuesIn(models::model_names()));

TEST(Zoo, ModelNamesMatchBuilders) {
  for (const std::string& name : models::model_names()) {
    EXPECT_NO_THROW(models::build(name)) << name;
  }
  EXPECT_THROW(models::build("vgg16"), Error);
}

TEST(Zoo, NodeCountsNearPaperTable1) {
  // Paper Table I node counts; we accept a +-25% corridor (see DESIGN.md).
  const std::vector<std::pair<std::string, int>> expected = {
      {"squeezenet", 66},  {"googlenet", 153},    {"inception_v3", 238},
      {"inception_v4", 339}, {"yolo_v5", 280},    {"retinanet", 450},
      {"bert", 963},         {"nasnet", 1426}};
  for (const auto& [name, count] : expected) {
    Graph g = models::build(name);
    EXPECT_GT(g.live_node_count(), count * 3 / 4) << name;
    EXPECT_LT(g.live_node_count(), count * 5 / 4) << name;
  }
}

TEST(Zoo, ParallelismFactorsNearPaperTable1) {
  // Paper Table I parallelism factors. Yolo is a documented deviation
  // (EXPERIMENTS.md), so it gets a wider corridor.
  const std::vector<std::tuple<std::string, double, double>> expected = {
      {"squeezenet", 0.86, 0.15},  {"googlenet", 1.4, 0.2},
      {"inception_v3", 1.37, 0.2}, {"inception_v4", 1.32, 0.2},
      {"yolo_v5", 1.18, 0.4},      {"retinanet", 1.2, 0.2},
      {"bert", 1.27, 0.15},        {"nasnet", 3.7, 0.6}};
  for (const auto& [name, paper, tol] : expected) {
    Graph g = models::build(name);
    const double mine = analyze_parallelism(g).parallelism;
    EXPECT_NEAR(mine, paper, tol) << name;
  }
}

TEST(Zoo, SqueezenetHasEightFireModules) {
  Graph g = models::build("squeezenet");
  // A fire module ends in a 2-input channel concat.
  int fire_concats = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kConcat && n.inputs.size() == 2) ++fire_concats;
  }
  EXPECT_EQ(fire_concats, 8);
  EXPECT_EQ(g.live_node_count(), 66);  // exact match with Table I
}

TEST(Zoo, GooglenetHasNineInceptionModules) {
  Graph g = models::build("googlenet");
  int four_way_concats = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kConcat && n.inputs.size() == 4) ++four_way_concats;
  }
  EXPECT_EQ(four_way_concats, 9);
}

TEST(Zoo, BertHasTwelveLayersOfMatmuls) {
  Graph g = models::build("bert");
  int matmuls = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kMatMul) ++matmuls;
  }
  // 8 matmuls per layer x 12 layers (QKV + scores + context + proj + 2 FF).
  EXPECT_EQ(matmuls, 96);
}

TEST(Zoo, YoloAndNasnetCarryFoldableChains) {
  for (const std::string name : {"yolo_v5", "nasnet", "bert"}) {
    Graph g = models::build(name);
    int shapes = 0, constants = 0;
    for (const Node& n : g.nodes()) {
      if (n.kind == OpKind::kShape) ++shapes;
      if (n.kind == OpKind::kConstant) ++constants;
    }
    EXPECT_GT(shapes, 0) << name;
    EXPECT_GT(constants, 0) << name;
  }
}

TEST(Zoo, NasnetIsLargestGraph) {
  // Fig. 4: NASNet is the biggest, most parallel graph.
  int nasnet_nodes = models::build("nasnet").live_node_count();
  for (const std::string& name : models::model_names()) {
    if (name == "nasnet") continue;
    EXPECT_GT(nasnet_nodes, models::build(name).live_node_count()) << name;
  }
}


// The paper tables as the bench programs print them (bench/table1_parallelism,
// table2_merging, table3_constprop). The §III-A weights, the distance pass,
// linear clustering and merging all feed these numbers, so any change to one
// of them shows up here as an exact mismatch.
CompiledModel compile_for_tables(const std::string& name, bool fold) {
  PipelineOptions opt;
  opt.constant_folding = fold;
  opt.generate_code = false;
  opt.mem_planning = false;
  return compile_model(models::build(name), opt);
}

TEST(PaperTables, TableOneRowsArePinned) {
  struct Row {
    const char* model;
    int nodes;
    std::int64_t node_cost, critical_path;
  };
  const Row rows[] = {
      {"squeezenet", 66, 133, 158},      {"googlenet", 142, 351, 249},
      {"inception_v3", 232, 759, 578},   {"inception_v4", 351, 1188, 882},
      {"yolo_v5", 255, 356, 416},        {"retinanet", 412, 915, 759},
      {"bert", 857, 19944, 15587},       {"nasnet", 1401, 3953, 1188}};
  for (const Row& r : rows) {
    const ParallelismReport rep = compile_for_tables(r.model, false).analysis;
    EXPECT_EQ(rep.num_nodes, r.nodes) << r.model;
    EXPECT_EQ(rep.total_weight, r.node_cost) << r.model;
    EXPECT_EQ(rep.critical_path, r.critical_path) << r.model;
  }
}

TEST(PaperTables, TableTwoClusterCountsArePinned) {
  struct Row {
    const char* model;
    int before, after;
  };
  const Row rows[] = {{"squeezenet", 9, 2},   {"googlenet", 28, 4},
                      {"inception_v3", 24, 4}, {"inception_v4", 36, 4},
                      {"yolo_v5", 56, 18},     {"retinanet", 36, 20},
                      {"bert", 122, 4},        {"nasnet", 222, 10}};
  for (const Row& r : rows) {
    const CompiledModel cm = compile_for_tables(r.model, false);
    EXPECT_EQ(cm.clusters_before_merge, r.before) << r.model;
    EXPECT_EQ(cm.clustering.size(), r.after) << r.model;
  }
}

TEST(PaperTables, TableThreeConstPropRowsArePinned) {
  struct Row {
    const char* model;
    int clusters_before, clusters_after, nodes_removed;
  };
  const Row rows[] = {{"yolo_v5", 18, 9, 51},
                      {"nasnet", 10, 10, 153},
                      {"bert", 4, 2, 240}};
  for (const Row& r : rows) {
    const CompiledModel plain = compile_for_tables(r.model, false);
    const CompiledModel folded = compile_for_tables(r.model, true);
    EXPECT_EQ(plain.clustering.size(), r.clusters_before) << r.model;
    EXPECT_EQ(folded.clustering.size(), r.clusters_after) << r.model;
    EXPECT_EQ(plain.graph.live_node_count() - folded.graph.live_node_count(),
              r.nodes_removed)
        << r.model;
  }
}

}  // namespace
}  // namespace ramiel

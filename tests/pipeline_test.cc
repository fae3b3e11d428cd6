#include <gtest/gtest.h>

#include "models/zoo.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "support/stopwatch.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(Pipeline, DefaultRunProducesEverything) {
  CompiledModel cm = compile_model(models::build("squeezenet"));
  EXPECT_EQ(cm.analysis.num_nodes, 66);
  EXPECT_EQ(cm.clusters_before_merge, 9);   // Table II before
  EXPECT_EQ(cm.clustering.size(), 2);        // Table II after
  EXPECT_FALSE(cm.code.parallel_source.empty());
  EXPECT_FALSE(cm.code.sequential_source.empty());
  EXPECT_GT(cm.compile_seconds, 0.0);
  EXPECT_EQ(cm.hyperclusters.batch, 1);
}

TEST(Pipeline, ConstantFoldingStageShrinksYolo) {
  PipelineOptions plain;
  PipelineOptions folded;
  folded.constant_folding = true;
  CompiledModel a = compile_model(models::build("yolo_v5"), plain);
  CompiledModel b = compile_model(models::build("yolo_v5"), folded);
  EXPECT_LT(b.graph.live_node_count(), a.graph.live_node_count());
  EXPECT_LE(b.clustering.size(), a.clustering.size());
  EXPECT_GT(b.fold_stats.folded_nodes, 0);
}

TEST(Pipeline, CloningStageAddsClones) {
  PipelineOptions opts;
  opts.cloning = true;
  CompiledModel cm = compile_model(models::build("inception_v3"), opts);
  EXPECT_GT(cm.clone_stats.clones_created, 0);
}

TEST(Pipeline, BatchTriggersHyperclustering) {
  PipelineOptions opts;
  opts.batch = 4;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  EXPECT_EQ(cm.hyperclusters.batch, 4);
  std::size_t tasks = 0;
  for (const auto& w : cm.hyperclusters.workers) tasks += w.size();
  EXPECT_EQ(tasks, static_cast<std::size_t>(cm.graph.live_node_count()) * 4);
}

TEST(Pipeline, SwitchedModeBalancesWorkers) {
  PipelineOptions plain;
  plain.batch = 2;
  PipelineOptions switched;
  switched.batch = 2;
  switched.hyper_mode = HyperMode::kSwitched;
  CompiledModel a = compile_model(models::build("squeezenet"), plain);
  CompiledModel b = compile_model(models::build("squeezenet"), switched);
  auto [amax, amin] = worker_load_bounds(a.hyperclusters);
  auto [bmax, bmin] = worker_load_bounds(b.hyperclusters);
  EXPECT_LE(bmax - bmin, amax - amin);
}

TEST(Pipeline, CompiledModelExecutesCorrectly) {
  // The transformed graph + clustering must still compute the same outputs
  // as the raw model.
  oracle::check(oracle::zoo("yolo_v5"),
                {{.arena = false, .rewrites = oracle::Rewrites::kFoldClone}});
}

TEST(Pipeline, CompileTimesAreSeconds) {
  // Table VIII: Ramiel completes code generation "in a few seconds" even
  // for the largest graph; our C++ pipeline should be far under that.
  Stopwatch sw;
  CompiledModel cm = compile_model(models::build("nasnet"));
  EXPECT_LT(cm.compile_seconds, 10.0);
  EXPECT_LT(sw.seconds(), 20.0);
}

TEST(Pipeline, GenerateCodeToggle) {
  PipelineOptions opts;
  opts.generate_code = false;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  EXPECT_TRUE(cm.code.parallel_source.empty());
}


TEST(Pipeline, BatchGeneratesHyperclusterSource) {
  PipelineOptions opts;
  opts.batch = 2;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  EXPECT_FALSE(cm.code.hypercluster_source.empty());
  EXPECT_NE(cm.code.hypercluster_source.find("batch 2"), std::string::npos);
  // Batch-1 compiles do not pay for it.
  CompiledModel plain = compile_model(models::build("squeezenet"));
  EXPECT_TRUE(plain.code.hypercluster_source.empty());
}

TEST(Pipeline, BnFusionStageShrinksGraphAndStaysCorrect) {
  Graph reference = models::build("retinanet");
  PipelineOptions opts;
  opts.pattern_overrides["fold-batch-norms"] = true;
  CompiledModel cm = compile_model(models::build("retinanet"), opts);
  EXPECT_GT(cm.pattern_stats.count("fold-batch-norms"), 0);
  EXPECT_LT(cm.graph.live_node_count(), reference.live_node_count());

  oracle::check_rewrite(reference, cm.graph, oracle::kZooRewriteChain,
                        &cm.hyperclusters);
}

}  // namespace
}  // namespace ramiel

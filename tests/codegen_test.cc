#include <gtest/gtest.h>

#include "codegen/python_codegen.h"
#include "models/zoo.h"
#include "passes/linear_clustering.h"
#include "test_util.h"

namespace ramiel {
namespace {

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(Codegen, EmitsOneFunctionPerCluster) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  EXPECT_EQ(count_occurrences(r.parallel_source, "def cluster_"), c.size());
  EXPECT_NE(r.parallel_source.find("def main("), std::string::npos);
}

TEST(Codegen, CrossClusterEdgesBecomeTaggedPutsAndRecvs) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  // Two crossings: a->side and side->d (Algorithm 4's queue.put/recv pairs).
  EXPECT_EQ(count_occurrences(r.parallel_source, ".put(("), 2);
  EXPECT_EQ(count_occurrences(r.parallel_source, "= recv("), 2);
  EXPECT_EQ(r.num_messages, 2);
  EXPECT_EQ(r.num_queues, 2);  // one queue each direction
}

TEST(Codegen, SsaNamesAreAssignedOnce) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  // Every op statement assigns v_<value name> exactly once across all
  // cluster functions; spot-check one conv.
  EXPECT_EQ(count_occurrences(r.parallel_source, "v_conv_0_out = "), 1);
}

TEST(Codegen, SequentialVersionCoversEveryOp) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  EXPECT_NE(r.sequential_source.find("def run_sequential("),
            std::string::npos);
  EXPECT_EQ(count_occurrences(r.sequential_source, "torch.relu("), 1);
  EXPECT_EQ(count_occurrences(r.sequential_source, "torch.sigmoid("), 1);
  EXPECT_EQ(count_occurrences(r.sequential_source, "torch.tanh("), 1);
  // No queue machinery in the sequential version.
  EXPECT_EQ(r.sequential_source.find("queue"), std::string::npos);
}

TEST(Codegen, WeightsAndInputsAreDictLookups) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  EXPECT_NE(r.parallel_source.find("weights['conv_0_w']"), std::string::npos);
  EXPECT_NE(r.parallel_source.find("inputs['data']"), std::string::npos);
  EXPECT_NE(r.parallel_source.find("outputs['"), std::string::npos);
}

TEST(Codegen, MainSpawnsProcessPerCluster) {
  Graph g = models::build("googlenet");
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  EXPECT_EQ(count_occurrences(r.parallel_source, "mp.Process(target=cluster_"),
            c.size());
  EXPECT_EQ(count_occurrences(r.parallel_source, "mp.Queue()"), r.num_queues);
}

TEST(Codegen, ConstantsEmittedAsWeights) {
  Graph g = testing::make_const_side_graph();
  Clustering c = testing::cluster(g);
  CodegenResult r = generate_python(g, c);
  // The Constant node does not produce a statement; its payload is read
  // from weights[...].
  EXPECT_NE(r.parallel_source.find("weights['k_out']"), std::string::npos);
}

TEST(TorchExpression, ConvCarriesHyperparameters) {
  Node n;
  n.kind = OpKind::kConv2d;
  n.attrs.set("kernel", 3).set("stride", 2).set("pad", 1).set("groups", 4);
  const std::string expr = torch_expression(n, {"x", "w", "b"});
  EXPECT_NE(expr.find("torch.nn.functional.conv2d(x, w, b"),
            std::string::npos);
  EXPECT_NE(expr.find("stride=2"), std::string::npos);
  EXPECT_NE(expr.find("padding=1"), std::string::npos);
  EXPECT_NE(expr.find("groups=4"), std::string::npos);
}

TEST(TorchExpression, ElementwiseOperators) {
  Node add;
  add.kind = OpKind::kAdd;
  EXPECT_EQ(torch_expression(add, {"a", "b"}), "a + b");
  Node mul;
  mul.kind = OpKind::kMul;
  EXPECT_EQ(torch_expression(mul, {"a", "b"}), "a * b");
}

TEST(TorchExpression, SliceBuildsPythonIndexing) {
  Node n;
  n.kind = OpKind::kSlice;
  n.attrs.set("axis", 2).set("begin", 0).set("end", 4).set("step", 2);
  EXPECT_EQ(torch_expression(n, {"x"}), "x[:, :, 0:4:2]");
}

TEST(TorchExpression, ConcatAndTranspose) {
  Node cat;
  cat.kind = OpKind::kConcat;
  cat.attrs.set("axis", 1);
  EXPECT_EQ(torch_expression(cat, {"a", "b"}), "torch.cat([a, b], dim=1)");
  Node tr;
  tr.kind = OpKind::kTranspose;
  tr.attrs.set("perm", std::vector<std::int64_t>{0, 2, 1});
  EXPECT_EQ(torch_expression(tr, {"x"}), "x.permute([0, 2, 1])");
}

TEST(Codegen, GeneratedSourcesAreNonTrivialForAllModels) {
  for (const std::string& name : models::model_names()) {
    Graph g = models::build(name);
    Clustering c = testing::cluster(g);
    CodegenResult r = generate_python(g, c, {name, name + ".rmb"});
    EXPECT_GT(r.parallel_source.size(), 2000u) << name;
    EXPECT_GT(r.sequential_source.size(), 1000u) << name;
    EXPECT_NE(r.parallel_source.find(name), std::string::npos);
  }
}


TEST(HyperCodegen, OneFunctionPerWorkerWithSampleTags) {
  Graph g = models::build("squeezenet");
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 2);
  const std::string src = generate_python_hyper(g, hc, {"squeezenet", "w"});
  EXPECT_EQ(count_occurrences(src, "def worker_"), c.size());
  // Sample-suffixed SSA names for both samples.
  EXPECT_NE(src.find("_s0 = "), std::string::npos);
  EXPECT_NE(src.find("_s1 = "), std::string::npos);
  // Message tags carry the sample index.
  EXPECT_NE(src.find(", 0))"), std::string::npos);
  EXPECT_NE(src.find("inputs[0]['data']"), std::string::npos);
  EXPECT_NE(src.find("inputs[1]['data']"), std::string::npos);
}

TEST(HyperCodegen, SwitchedVariantRoutesAcrossWorkers) {
  Graph g = testing::make_diamond_graph();
  Clustering c = testing::cluster(g);
  Hyperclustering hc = build_switched_hyperclusters(g, c, 2);
  const std::string src = generate_python_hyper(g, hc, {"diamond", "w"});
  // Switched assignment makes both workers both send and receive.
  EXPECT_NE(src.find("q_0_1"), std::string::npos);
  EXPECT_NE(src.find("q_1_0"), std::string::npos);
  EXPECT_EQ(count_occurrences(src, "def worker_"), 2);
}

TEST(HyperCodegen, InterleavesSamplesInEmissionOrder) {
  Graph g = testing::make_chain_graph();
  Hyperclustering hc = testing::hypercluster(g, 2);
  const std::string src = generate_python_hyper(g, hc, {"chain", "w"});
  // First statement computes sample 0, second computes sample 1 of the same
  // op (the round-robin interleave of §III-E).
  const std::size_t s0 = src.find("v_a_out_s0 = ");
  const std::size_t s1 = src.find("v_a_out_s1 = ");
  const std::size_t next0 = src.find("v_b_out_s0 = ");
  ASSERT_NE(s0, std::string::npos);
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(next0, std::string::npos);
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, next0);
}

}  // namespace
}  // namespace ramiel

// Pattern-rewrite framework tests (`ctest -L pattern`): the two bugfix
// regressions (graph-output rebinding and stale consumer entries in BN
// folding), driver-enforced invariants, each builtin rule, per-pattern
// enable flags and report counts, plus output-preservation property tests
// on random DAGs and the full zoo across static/steal executors and
// heap/arena memory plans (oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/shape_inference.h"
#include "models/zoo.h"
#include "obs/json_read.h"
#include "oracle.h"
#include "passes/patterns/driver.h"
#include "passes/patterns/registry.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "strict_json.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

using patterns::Pattern;
using patterns::PatternRunOptions;
using patterns::PatternRunStats;
using patterns::pattern_registry;
using patterns::run_patterns;

// -- graph builders ---------------------------------------------------------

/// Conv(w[, b]) -> BatchNorm chain over a [1, C, 4, 4] image. The BN output
/// is the graph output unless `tail_relu` adds a Relu behind it (and
/// `tail_tanh` a Tanh behind that, keeping the Relu interior too).
Graph conv_bn_graph(bool conv_bias, bool tail_relu, bool tail_tanh = false) {
  Graph g("conv_bn");
  const std::int64_t C = 2, K = 3;
  ValueId in = g.add_value("x", Shape{1, C, 4, 4});
  g.mark_input(in);
  Rng rng(7);
  ValueId w = g.add_initializer("w", Tensor::random(Shape{K, C, 3, 3}, rng));
  std::vector<ValueId> conv_in = {in, w};
  if (conv_bias) {
    conv_in.push_back(g.add_initializer("b", Tensor::random(Shape{K}, rng)));
  }
  NodeId conv = g.add_node(OpKind::kConv2d, "conv", conv_in, 1,
                           Attrs().set("pad", 1));
  ValueId scale =
      g.add_initializer("scale", Tensor::random(Shape{K}, rng, 0.5f, 1.5f));
  ValueId bias = g.add_initializer("bias", Tensor::random(Shape{K}, rng));
  ValueId mean = g.add_initializer("mean", Tensor::random(Shape{K}, rng));
  ValueId var =
      g.add_initializer("var", Tensor::random(Shape{K}, rng, 0.1f, 1.0f));
  NodeId bn = g.add_node(OpKind::kBatchNorm, "bn",
                         {g.node(conv).outputs[0], scale, bias, mean, var});
  ValueId tail = g.node(bn).outputs[0];
  if (tail_relu) {
    tail = g.node(g.add_node(OpKind::kRelu, "relu", {tail})).outputs[0];
  }
  if (tail_tanh) {
    tail = g.node(g.add_node(OpKind::kTanh, "tanh", {tail})).outputs[0];
  }
  g.mark_output(tail);
  infer_shapes(g);
  g.validate();
  return g;
}

/// Conv -> Mul(const) -> Add(const) -> Relu -> Tanh over a [1, 2, 4, 4]
/// image, constants shaped [1, K, 1, 1] (channel broadcast). The Tanh tail
/// keeps every rewritten value interior so all the epilogue rules may fire.
Graph conv_epilogue_chain_graph() {
  Graph g("conv_chain");
  const std::int64_t C = 2, K = 3;
  ValueId in = g.add_value("x", Shape{1, C, 4, 4});
  g.mark_input(in);
  Rng rng(11);
  ValueId w = g.add_initializer("w", Tensor::random(Shape{K, C, 3, 3}, rng));
  ValueId b = g.add_initializer("b", Tensor::random(Shape{K}, rng));
  NodeId conv = g.add_node(OpKind::kConv2d, "conv", {in, w, b}, 1,
                           Attrs().set("pad", 1));
  ValueId s = g.add_initializer(
      "s", Tensor::random(Shape{1, K, 1, 1}, rng, 0.5f, 1.5f));
  NodeId mul = g.add_node(OpKind::kMul, "mul", {g.node(conv).outputs[0], s});
  ValueId c = g.add_initializer("c", Tensor::random(Shape{1, K, 1, 1}, rng));
  NodeId add = g.add_node(OpKind::kAdd, "add", {c, g.node(mul).outputs[0]});
  NodeId relu = g.add_node(OpKind::kRelu, "relu", {g.node(add).outputs[0]});
  NodeId tanh = g.add_node(OpKind::kTanh, "tanh", {g.node(relu).outputs[0]});
  g.mark_output(g.node(tanh).outputs[0]);
  infer_shapes(g);
  g.validate();
  return g;
}

/// Gemm(x, Transpose(const)) -> Add(row const) -> Tanh: exercises
/// constexpr-shape-ops on the weight transpose and Gemm bias absorption.
Graph gemm_transpose_graph() {
  Graph g("gemm_chain");
  const std::int64_t M = 2, K = 4, N = 3;
  ValueId in = g.add_value("x", Shape{M, K});
  g.mark_input(in);
  Rng rng(13);
  ValueId wt = g.add_initializer("wt", Tensor::random(Shape{N, K}, rng));
  NodeId tr = g.add_node(OpKind::kTranspose, "tr", {wt}, 1,
                         Attrs().set("perm", std::vector<std::int64_t>{1, 0}));
  NodeId gemm =
      g.add_node(OpKind::kGemm, "gemm", {in, g.node(tr).outputs[0]});
  ValueId c = g.add_initializer("c", Tensor::random(Shape{1, N}, rng));
  NodeId add = g.add_node(OpKind::kAdd, "add", {g.node(gemm).outputs[0], c});
  NodeId tanh = g.add_node(OpKind::kTanh, "tanh", {g.node(add).outputs[0]});
  g.mark_output(g.node(tanh).outputs[0]);
  infer_shapes(g);
  g.validate();
  return g;
}

NodeId find_node(const Graph& g, const std::string& name) {
  for (const Node& n : g.nodes()) {
    if (n.name == name) return n.id;
  }
  return kNoNode;
}

// -- bugfix regressions -----------------------------------------------------

TEST(PatternBugfix, BnFoldPreservesGraphOutputInterface) {
  // A Conv -> BN tail where the BN output IS the model output: folding
  // would rebind the model's interface to the conv's output value. The
  // guard must skip it and keep the output id and name intact.
  Graph g = conv_bn_graph(/*conv_bias=*/true, /*tail_relu=*/false);
  const ValueId out_id = g.outputs()[0];
  const std::string out_name = g.value(out_id).name;

  EXPECT_EQ(testing::run_pattern(g, "fold-batch-norms"), 0);
  ASSERT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(g.outputs()[0], out_id);
  EXPECT_EQ(g.value(g.outputs()[0]).name, out_name);
  EXPECT_FALSE(g.node(g.value(out_id).producer).dead);  // BN still live
  g.validate();
}

TEST(PatternBugfix, BnFoldBehindTailStillFires) {
  // Same chain with a Relu behind the BN: the BN output is interior, so
  // folding is safe and must still happen — and stay numerically faithful.
  Graph reference = conv_bn_graph(true, /*tail_relu=*/true);
  Graph g = conv_bn_graph(true, /*tail_relu=*/true);
  EXPECT_EQ(testing::run_pattern(g, "fold-batch-norms"), 1);
  g.validate();

  oracle::check_rewrite(reference, g, oracle::kPatterns);
}

TEST(PatternBugfix, BnFoldLeavesNoStaleConsumerEntries) {
  // Folding rewrites the conv's weight/bias inputs to fresh _bnfold_*
  // initializers; the conv must not linger in the superseded initializers'
  // consumer lists (stale entries keep dead weights alive in liveness
  // analysis and memory planning).
  Graph g = conv_bn_graph(/*conv_bias=*/true, /*tail_relu=*/true);
  const ValueId old_w = g.find_value("w");
  const ValueId old_b = g.find_value("b");
  ASSERT_NE(old_w, -1);
  ASSERT_NE(old_b, -1);
  ASSERT_EQ(g.value(old_w).consumers.size(), 1u);

  ASSERT_EQ(testing::run_pattern(g, "fold-batch-norms"), 1);
  EXPECT_TRUE(g.value(old_w).consumers.empty());
  EXPECT_TRUE(g.value(old_b).consumers.empty());
  g.validate();  // consumer-hygiene check passes
}

TEST(PatternBugfix, ValidateRejectsStaleConsumerEntry) {
  Graph g = conv_bn_graph(true, true);
  g.validate();
  // Simulate the old bug by hand: a consumer entry for a node that does
  // not read the value.
  const NodeId relu = find_node(g, "relu");
  ASSERT_NE(relu, kNoNode);
  g.value(g.find_value("w")).consumers.push_back(relu);
  EXPECT_THROW(g.validate(), ValidationError);
}

TEST(PatternBugfix, ValidateRejectsMissingConsumerEntry) {
  Graph g = conv_bn_graph(true, true);
  auto& consumers = g.value(g.find_value("w")).consumers;
  ASSERT_FALSE(consumers.empty());
  consumers.clear();
  EXPECT_THROW(g.validate(), ValidationError);
}

// -- driver-enforced invariants ---------------------------------------------

/// A deliberately buggy rule: rebinds a graph output (and lies about
/// replaced_values, so the pre-apply veto cannot save it). Matches only the
/// sentinel node name "rebind_me" so registering it process-wide cannot
/// affect other tests. Disabled by default for the same reason.
class RebindingPattern final : public Pattern {
 public:
  std::string_view name() const override { return "test-rebind"; }
  std::string_view description() const override {
    return "test-only: rebinds a graph output";
  }
  bool enabled_by_default() const override { return false; }
  bool match(const Graph& g, NodeId root) const override {
    return g.node(root).name == "rebind_me";
  }
  std::vector<ValueId> replaced_values(const Graph&, NodeId) const override {
    return {};  // lies: the rewrite below rebinds the output
  }
  bool apply(Graph& g, NodeId root) override {
    const Node& n = g.node(root);
    g.replace_value_uses(n.outputs[0], n.inputs[0]);
    g.kill_node(root);
    return true;
  }
};

/// A buggy rule that leaves a stale consumer entry by writing Node::inputs
/// raw instead of using replace_node_input(). Same sentinel-name scheme.
class StaleConsumerPattern final : public Pattern {
 public:
  std::string_view name() const override { return "test-stale"; }
  std::string_view description() const override {
    return "test-only: leaves a stale consumer entry";
  }
  bool enabled_by_default() const override { return false; }
  bool match(const Graph& g, NodeId root) const override {
    return g.node(root).name == "stale_me";
  }
  bool apply(Graph& g, NodeId root) override {
    Node& n = g.node(root);
    n.inputs[0] = n.inputs[1];  // no consumer-list maintenance
    return true;
  }
};

void register_buggy_patterns_once() {
  static const bool done = [] {
    pattern_registry().add(std::make_unique<RebindingPattern>());
    pattern_registry().add(std::make_unique<StaleConsumerPattern>());
    return true;
  }();
  (void)done;
}

TEST(PatternDriver, CatchesInterfaceRebindingRules) {
  register_buggy_patterns_once();
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId r = g.add_node(OpKind::kRelu, "rebind_me", {in});
  g.mark_output(g.node(r).outputs[0]);
  infer_shapes(g);

  try {
    run_patterns(g, testing::only_pattern("test-rebind"));
    FAIL() << "driver accepted an interface-rebinding rewrite";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("test-rebind"), std::string::npos);
  }
}

TEST(PatternDriver, CatchesStaleConsumerRules) {
  register_buggy_patterns_once();
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  ValueId c = g.add_initializer("c", Tensor::full(Shape{1, 4}, 2.0f));
  NodeId a = g.add_node(OpKind::kAdd, "stale_me", {c, in});
  NodeId r = g.add_node(OpKind::kRelu, "r", {g.node(a).outputs[0]});
  g.mark_output(g.node(r).outputs[0]);
  infer_shapes(g);
  g.validate();

  try {
    run_patterns(g, testing::only_pattern("test-stale"));
    FAIL() << "driver accepted a rewrite that left stale consumer entries";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("test-stale"), std::string::npos);
  }
}

TEST(PatternDriver, UnknownPatternNameIsRejected) {
  Graph g = conv_bn_graph(true, true);
  PatternRunOptions o;
  o.enable["no-such-pattern"] = true;
  EXPECT_THROW(run_patterns(g, o), Error);
}

TEST(PatternDriver, RegistryHasBuiltinsWithUniqueNames) {
  const auto names = pattern_registry().names();
  EXPECT_GE(names.size(), 6u);
  for (const char* expected :
       {"constexpr-shape-ops", "drop-identity", "fold-batch-norms",
        "fold-scale-mul", "absorb-bias-add", "fuse-activations"}) {
    EXPECT_NE(pattern_registry().find(expected), nullptr) << expected;
  }
  auto sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(PatternDriver, DisabledPatternDoesNotRun) {
  Graph g = conv_bn_graph(true, true);
  const int nodes_before = g.live_node_count();
  PatternRunOptions o;
  for (const std::string& n : pattern_registry().names()) o.enable[n] = false;
  PatternRunStats stats = run_patterns(g, o);
  EXPECT_EQ(stats.total_applied, 0);
  EXPECT_TRUE(stats.applied.empty());
  EXPECT_EQ(g.live_node_count(), nodes_before);
}

// -- individual rules -------------------------------------------------------

TEST(PatternRules, EpilogueChainCollapsesToFusedConv) {
  Graph reference = conv_epilogue_chain_graph();
  Graph g = conv_epilogue_chain_graph();
  PatternRunStats stats = run_patterns(g);
  EXPECT_EQ(stats.count("fold-scale-mul"), 1);
  EXPECT_EQ(stats.count("absorb-bias-add"), 1);
  EXPECT_EQ(stats.count("fuse-activations"), 1);
  EXPECT_EQ(g.live_node_count(), 2);  // fused conv + tanh tail
  const NodeId conv = find_node(g, "conv");
  EXPECT_EQ(g.node(conv).attrs.get_str("act"), "relu");
  EXPECT_EQ(g.node(conv).inputs.size(), 3u);

  oracle::check_rewrite(reference, g, oracle::kPatterns);
}

TEST(PatternRules, GemmTransposeConstexprAndBiasAbsorb) {
  Graph reference = gemm_transpose_graph();
  Graph g = gemm_transpose_graph();
  PatternRunStats stats = run_patterns(g);
  EXPECT_EQ(stats.count("constexpr-shape-ops"), 1);
  EXPECT_EQ(stats.count("absorb-bias-add"), 1);
  EXPECT_EQ(g.live_node_count(), 2);  // gemm (bias absorbed) + tanh
  EXPECT_EQ(g.node(find_node(g, "gemm")).inputs.size(), 3u);

  oracle::check_rewrite(reference, g, oracle::kPatterns);
}

TEST(PatternRules, DropIdentitySkipsGraphOutputs) {
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId r = g.add_node(OpKind::kRelu, "r", {in});
  NodeId mid = g.add_node(OpKind::kIdentity, "mid", {g.node(r).outputs[0]});
  NodeId t = g.add_node(OpKind::kTanh, "t", {g.node(mid).outputs[0]});
  NodeId tail = g.add_node(OpKind::kIdentity, "tail", {g.node(t).outputs[0]});
  g.mark_output(g.node(tail).outputs[0]);
  infer_shapes(g);

  auto stats = run_patterns(g, testing::only_pattern("drop-identity"));
  EXPECT_EQ(stats.count("drop-identity"), 1);  // interior only
  EXPECT_TRUE(g.node(mid).dead);
  EXPECT_FALSE(g.node(tail).dead);  // output-producing identity kept
  g.validate();
}

TEST(PatternRules, SharedConvOutputBlocksAbsorption) {
  // Conv output feeding both an Add(const) and a second consumer: the
  // driver's single-consumer guard must veto the absorb.
  Graph g("t");
  ValueId in = g.add_value("x", Shape{1, 2, 4, 4});
  g.mark_input(in);
  Rng rng(9);
  ValueId w = g.add_initializer("w", Tensor::random(Shape{3, 2, 3, 3}, rng));
  NodeId conv = g.add_node(OpKind::kConv2d, "conv", {in, w}, 1,
                           Attrs().set("pad", 1));
  ValueId c = g.add_initializer("c", Tensor::random(Shape{1, 3, 1, 1}, rng));
  NodeId add = g.add_node(OpKind::kAdd, "add", {g.node(conv).outputs[0], c});
  NodeId t = g.add_node(OpKind::kTanh, "t", {g.node(add).outputs[0]});
  NodeId other = g.add_node(OpKind::kRelu, "other",
                            {g.node(conv).outputs[0]});
  g.mark_output(g.node(t).outputs[0]);
  g.mark_output(g.node(other).outputs[0]);
  infer_shapes(g);

  auto stats = run_patterns(g, testing::only_pattern("absorb-bias-add"));
  EXPECT_EQ(stats.count("absorb-bias-add"), 0);
  EXPECT_FALSE(g.node(add).dead);
  g.validate();
}

TEST(PatternRules, PerRowGemmBiasBlocksAbsorption) {
  // A square Gemm with an [M,1] bias: summing it into a per-column bias
  // would swap rows for columns, so the Add must stay.
  Graph reference("t");
  Rng rng(10);
  ValueId in = reference.add_value("x", Shape{3, 3});
  reference.mark_input(in);
  ValueId w = reference.add_initializer("w", Tensor::random(Shape{3, 3}, rng));
  ValueId b = reference.add_initializer("b", Tensor(Shape{3, 1}, {1, 2, 3}));
  NodeId gemm = reference.add_node(OpKind::kGemm, "gemm", {in, w, b});
  ValueId c = reference.add_initializer("c", Tensor::vec({10, 20, 30}));
  NodeId add = reference.add_node(OpKind::kAdd, "add",
                                  {reference.node(gemm).outputs[0], c});
  NodeId t = reference.add_node(OpKind::kTanh, "t",
                                {reference.node(add).outputs[0]});
  reference.mark_output(reference.node(t).outputs[0]);
  infer_shapes(reference);
  Graph g = reference;

  auto stats = run_patterns(g, testing::only_pattern("absorb-bias-add"));
  EXPECT_EQ(stats.count("absorb-bias-add"), 0);
  EXPECT_FALSE(g.node(add).dead);
  oracle::check_rewrite(reference, g, oracle::kExact);
}

TEST(PatternRules, PerRowGemmBiasBlocksScaleFolding) {
  // Scaling rebuilds the bias as a per-column vector. A Gemm bias that
  // varies along M ([M,1] on a square or a wide product, [M,N]) cannot
  // take that form, so the Mul must stay.
  for (const Shape& bias_shape : {Shape{3, 1}, Shape{2, 1}, Shape{2, 3}}) {
    const std::int64_t M = bias_shape.dim(0);
    Graph reference("t");
    Rng rng(11);
    ValueId in = reference.add_value("x", Shape{M, 3});
    reference.mark_input(in);
    ValueId w =
        reference.add_initializer("w", Tensor::random(Shape{3, 3}, rng));
    ValueId b =
        reference.add_initializer("b", Tensor::random(bias_shape, rng));
    NodeId gemm = reference.add_node(OpKind::kGemm, "gemm", {in, w, b});
    ValueId s = reference.add_initializer("s", Tensor::vec({2, -3, 5}));
    NodeId mul = reference.add_node(OpKind::kMul, "mul",
                                    {reference.node(gemm).outputs[0], s});
    NodeId t = reference.add_node(OpKind::kTanh, "t",
                                  {reference.node(mul).outputs[0]});
    reference.mark_output(reference.node(t).outputs[0]);
    infer_shapes(reference);
    Graph g = reference;

    auto stats = run_patterns(g, testing::only_pattern("fold-scale-mul"));
    EXPECT_EQ(stats.count("fold-scale-mul"), 0) << bias_shape.to_string();
    EXPECT_FALSE(g.node(mul).dead);
    oracle::check_rewrite(reference, g, oracle::kExact);
  }
}

TEST(PatternRules, LegacyWrappersStillReportCounts) {
  Graph g = conv_bn_graph(true, /*tail_relu=*/true, /*tail_tanh=*/true);
  EXPECT_EQ(testing::run_pattern(g, "fold-batch-norms"), 1);
  // The relu fuses into the folded conv.
  EXPECT_EQ(testing::run_pattern(g, "fuse-activations"), 1);
  EXPECT_EQ(g.live_node_count(), 2);  // fused conv + tanh
}

// -- pipeline + report plumbing ---------------------------------------------

TEST(PatternPipeline, ReportCarriesPerPatternCounts) {
  PipelineOptions opts;
  opts.pattern_rewrites = true;
  opts.generate_code = false;
  CompiledModel cm = compile_model(models::build("retinanet"), opts);
  EXPECT_GT(cm.pattern_stats.total_applied, 0);
  EXPECT_GT(cm.pattern_stats.count("fold-batch-norms"), 0);

  const std::string json = compile_report_json(cm);
  std::string err;
  EXPECT_TRUE(testutil::StrictJson::valid(json, &err)) << err;

  // Round-trip through the strict reader: the patterns block must carry
  // every enabled rule's applied count.
  obs::JsonValue root;
  std::string perr;
  ASSERT_TRUE(obs::json_parse(json, &root, &perr)) << perr;
  const obs::JsonValue* pat = root.find("patterns");
  ASSERT_NE(pat, nullptr);
  EXPECT_EQ(static_cast<int>(pat->number_or("rounds", -1)),
            cm.pattern_stats.rounds);
  EXPECT_EQ(static_cast<int>(pat->number_or("total_applied", -1)),
            cm.pattern_stats.total_applied);
  const obs::JsonValue* counts = pat->find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->object.size(), cm.pattern_stats.applied.size());
  for (const auto& [name, applied] : cm.pattern_stats.applied) {
    EXPECT_EQ(static_cast<int>(counts->number_or(name, -1)), applied) << name;
  }
  // The "pattern_rewrite" pass appears in the per-pass report.
  bool saw_stage = false;
  for (const PassReport& p : cm.pass_reports) {
    saw_stage = saw_stage || p.pass == "pattern_rewrite";
  }
  EXPECT_TRUE(saw_stage);
}

TEST(PatternPipeline, NoPatternOverrideDisablesOneRule) {
  PipelineOptions opts;
  opts.pattern_rewrites = true;
  opts.generate_code = false;
  opts.pattern_overrides["fold-batch-norms"] = false;
  CompiledModel cm = compile_model(models::build("retinanet"), opts);
  EXPECT_EQ(cm.pattern_stats.count("fold-batch-norms"), 0);
  for (const auto& [name, applied] : cm.pattern_stats.applied) {
    EXPECT_NE(name, "fold-batch-norms");
    (void)applied;
  }
}

TEST(PatternPipeline, LegacyFlagsStillDriveTheStage) {
  // --fuse-bn is a forced-on override: without pattern_rewrites the stage
  // runs that rule alone.
  PipelineOptions opts;
  opts.pattern_overrides["fold-batch-norms"] = true;
  opts.generate_code = false;
  CompiledModel cm = compile_model(models::build("retinanet"), opts);
  const int folded = cm.pattern_stats.count("fold-batch-norms");
  EXPECT_GT(folded, 0);
  EXPECT_EQ(cm.pattern_stats.total_applied, folded);
  ASSERT_EQ(cm.pattern_stats.applied.size(), 1u);
  EXPECT_EQ(cm.pattern_stats.applied[0].first, "fold-batch-norms");

  // Overrides that only switch rules off do not start the stage.
  PipelineOptions off;
  off.pattern_overrides["fold-batch-norms"] = false;
  off.generate_code = false;
  CompiledModel plain = compile_model(models::build("retinanet"), off);
  EXPECT_EQ(plain.pattern_stats.rounds, 0);
  for (const PassReport& p : plain.pass_reports) {
    EXPECT_NE(p.pass, "pattern_rewrite");
  }
}

// -- property tests: random DAGs --------------------------------------------

class PatternProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatternProperty, RandomSubsetPreservesOutputsOnRandomDags) {
  const std::uint64_t seed = GetParam();
  Graph reference = oracle::random_dag(seed);

  // Random pattern subset derived from the seed; every third seed runs the
  // default set (builtins on, test-only rules off).
  PatternRunOptions o;
  if (seed % 3 != 0) {
    Rng coin(seed * 77 + 1);
    for (const std::string& n : pattern_registry().names()) {
      const bool test_only = n.rfind("test-", 0) == 0;
      o.enable[n] = !test_only && coin.next_below(2) == 0;
    }
  }

  Graph g = oracle::random_dag(seed);
  PatternRunStats stats = run_patterns(g, o);
  g.validate();
  EXPECT_LE(g.live_node_count(), reference.live_node_count());
  for (const auto& [name, applied] : stats.applied) {
    if (!o.enable.empty()) {
      EXPECT_TRUE(o.enable.at(name)) << name;
    }
    (void)applied;
  }

  oracle::check_rewrite(reference, g, oracle::kPatterns);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

// -- property tests: zoo models × executors × memory plans ------------------

class PatternZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PatternZoo, AllPatternsPreserveOutputsAcrossRuntimesAndPlans) {
  const oracle::Cell patterns{.rewrites = oracle::Rewrites::kPatterns};
  EXPECT_LE(oracle::compile(models::build(GetParam()), patterns)
                .graph.live_node_count(),
            models::build(GetParam()).live_node_count());
  oracle::check(oracle::zoo(GetParam()),
                oracle::cells({.placements = {ExecutorKind::kStatic,
                                              ExecutorKind::kSteal},
                               .arenas = {false, true},
                               .rewrites = {oracle::Rewrites::kPatterns}}));
}

INSTANTIATE_TEST_SUITE_P(Zoo, PatternZoo,
                         ::testing::ValuesIn(models::model_names()));

}  // namespace
}  // namespace ramiel

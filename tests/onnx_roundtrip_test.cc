#include <sstream>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "onnx/model_io.h"
#include "support/check.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// Structural equality check between two graphs (names, ops, wiring,
/// attrs, initializer payloads).
void expect_graphs_equal(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.live_node_count(), b.live_node_count());
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    EXPECT_EQ(a.value(a.inputs()[i]).name, b.value(b.inputs()[i]).name);
    EXPECT_EQ(a.value(a.inputs()[i]).shape, b.value(b.inputs()[i]).shape);
  }
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    EXPECT_EQ(a.value(a.outputs()[i]).name, b.value(b.outputs()[i]).name);
  }
  // Node-by-node (serialization preserves live-node order).
  std::vector<const Node*> an, bn;
  for (const Node& n : a.nodes()) {
    if (!n.dead) an.push_back(&n);
  }
  for (const Node& n : b.nodes()) {
    if (!n.dead) bn.push_back(&n);
  }
  ASSERT_EQ(an.size(), bn.size());
  for (std::size_t i = 0; i < an.size(); ++i) {
    EXPECT_EQ(an[i]->kind, bn[i]->kind);
    EXPECT_EQ(an[i]->name, bn[i]->name);
    ASSERT_EQ(an[i]->inputs.size(), bn[i]->inputs.size());
    for (std::size_t j = 0; j < an[i]->inputs.size(); ++j) {
      EXPECT_EQ(a.value(an[i]->inputs[j]).name, b.value(bn[i]->inputs[j]).name);
    }
    EXPECT_EQ(an[i]->attrs.size(), bn[i]->attrs.size());
  }
  // Initializer payloads.
  for (const Value& v : a.values()) {
    if (!v.is_constant()) continue;
    ValueId bv = b.find_value(v.name);
    ASSERT_GE(bv, 0) << v.name;
    ASSERT_TRUE(b.value(bv).is_constant()) << v.name;
    EXPECT_TRUE(allclose(*v.const_data, *b.value(bv).const_data, 1e-6f, 1e-5f))
        << v.name;
  }
}

TEST(TextFormat, RoundTripsDiamond) {
  Graph g = testing::make_diamond_graph();
  const std::string text = save_model_text(g);
  Graph loaded = load_model_text(text);
  expect_graphs_equal(g, loaded);
}

TEST(TextFormat, RoundTripsConstantNodes) {
  Graph g = testing::make_const_side_graph();
  Graph loaded = load_model_text(save_model_text(g));
  expect_graphs_equal(g, loaded);
  // The Constant node's payload survived.
  ValueId kv = loaded.find_value("k_out");
  ASSERT_GE(kv, 0);
  EXPECT_TRUE(loaded.value(kv).is_constant());
}

TEST(TextFormat, RoundTripsAllAttrTypes) {
  Graph g("attrs");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  Attrs attrs;
  attrs.set("i", 42)
      .set("f", 1.5)
      .set("s", std::string("hello \"world\""))
      .set("list", std::vector<std::int64_t>{1, -2, 3});
  NodeId n = g.add_node(OpKind::kSoftmax, "sm", {in}, 1, std::move(attrs));
  g.mark_output(g.node(n).outputs[0]);
  Graph loaded = load_model_text(save_model_text(g));
  const Attrs& la = loaded.nodes()[0].attrs;
  EXPECT_EQ(la.get_int("i"), 42);
  EXPECT_DOUBLE_EQ(la.get_float("f"), 1.5);
  EXPECT_EQ(la.get_str("s"), "hello \"world\"");
  EXPECT_EQ(la.get_ints("list"), (std::vector<std::int64_t>{1, -2, 3}));
}

TEST(TextFormat, PreservesFloatPrecision) {
  Graph g("prec");
  ValueId w = g.add_initializer(
      "w", Tensor(Shape{3}, {1.0e-30f, 3.14159274f, -2.7182818e20f}));
  ValueId in = g.add_value("x", Shape{3});
  g.mark_input(in);
  NodeId n = g.add_node(OpKind::kAdd, "a", {in, w});
  g.mark_output(g.node(n).outputs[0]);
  Graph loaded = load_model_text(save_model_text(g));
  ValueId lw = loaded.find_value("w");
  EXPECT_TRUE(allclose(*g.value(w).const_data, *loaded.value(lw).const_data,
                       0.0f, 1e-6f));
}

TEST(TextFormat, RejectsBadMagic) {
  EXPECT_THROW(load_model_text("not a model\n"), ParseError);
}

TEST(TextFormat, RejectsUnknownOp) {
  const std::string text =
      "ramiel-onnx-lite v1\nmodel \"m\"\ninput \"x\" [1]\n"
      "node Bogus \"n\" in(\"x\") out(\"y\")\noutput \"y\"\n";
  EXPECT_THROW(load_model_text(text), ParseError);
}

TEST(TextFormat, RejectsUndefinedInput) {
  const std::string text =
      "ramiel-onnx-lite v1\nmodel \"m\"\n"
      "node Relu \"n\" in(\"nope\") out(\"y\")\noutput \"y\"\n";
  EXPECT_THROW(load_model_text(text), ParseError);
}

TEST(TextFormat, RejectsWrongInitializerSize) {
  const std::string text =
      "ramiel-onnx-lite v1\nmodel \"m\"\ninit \"w\" [3] {1 2}\n";
  EXPECT_THROW(load_model_text(text), ParseError);
}

TEST(TextFormat, SkipsCommentsAndBlankLines) {
  const std::string text =
      "ramiel-onnx-lite v1\n# comment\n\nmodel \"m\"\ninput \"x\" [1]\n"
      "node Relu \"n\" in(\"x\") out(\"y\")\n# more\noutput \"y\"\n";
  Graph g = load_model_text(text);
  EXPECT_EQ(g.live_node_count(), 1);
}

TEST(BinaryFormat, RoundTripsDiamond) {
  Graph g = testing::make_diamond_graph();
  std::stringstream ss;
  save_model_binary(g, ss);
  Graph loaded = load_model_binary(ss);
  expect_graphs_equal(g, loaded);
}

TEST(BinaryFormat, RoundTripsConstSide) {
  Graph g = testing::make_const_side_graph();
  std::stringstream ss;
  save_model_binary(g, ss);
  Graph loaded = load_model_binary(ss);
  expect_graphs_equal(g, loaded);
}

TEST(BinaryFormat, RejectsBadMagic) {
  std::stringstream ss;
  ss << "XXXXgarbage";
  EXPECT_THROW(load_model_binary(ss), ParseError);
}

TEST(BinaryFormat, RejectsTruncation) {
  Graph g = testing::make_diamond_graph();
  std::stringstream ss;
  save_model_binary(g, ss);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(load_model_binary(half), ParseError);
}

TEST(TextFormat, RejectsNegativeDims) {
  for (const char* decl : {"input \"x\" [2, -3]", "init \"x\" [-1] { }"}) {
    const std::string text = std::string("ramiel-onnx-lite v1\nmodel \"m\"\n") +
                             decl + "\nnode Relu \"r\" in(\"x\") out(\"y\")\n"
                             "output \"y\"\n";
    EXPECT_THROW(load_model_text(text), ParseError) << decl;
  }
}

TEST(ModelFormats, RejectShapesPastTwoToTheFortyElements) {
  // Their element counts would overflow int64 (and size nothing real).
  for (const char* decl : {"input \"x\" [4294967296, 4294967296, 4]",
                           "input \"x\" [0, 4294967296, 4294967296]",
                           "init \"x\" [1099511627777] { 1 }"}) {
    const std::string text =
        std::string("ramiel-onnx-lite v1\nmodel \"m\"\n") + decl +
        "\nnode Relu \"r\" in(\"x\") out(\"y\")\noutput \"y\"\n";
    EXPECT_THROW(load_model_text(text), ParseError) << decl;
  }
  for (const Shape& huge : {Shape{1ll << 21, 1ll << 21},
                            Shape{0, 1ll << 32, 1ll << 32}}) {
    Graph g("huge");
    g.mark_input(g.add_value("x", huge));
    std::stringstream ss;
    save_model_binary(g, ss);
    EXPECT_THROW(load_model_binary(ss), ParseError) << huge.to_string();
  }
}

TEST(BinaryFormat, RejectsNegativeDims) {
  Graph g("neg");
  const ValueId x = g.add_value("x", Shape{2, -3});
  g.mark_input(x);
  const NodeId n = g.add_node(OpKind::kRelu, "r", {x}, 1);
  g.mark_output(g.node(n).outputs[0]);
  std::stringstream ss;
  save_model_binary(g, ss);
  try {
    load_model_binary(ss);
    FAIL() << "negative dim accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("negative dimension -3"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelFile, DispatchesOnExtension) {
  Graph g = testing::make_diamond_graph();
  save_model_file(g, "/tmp/ramiel_test_model.rml");
  Graph t = load_model_file("/tmp/ramiel_test_model.rml");
  expect_graphs_equal(g, t);
  save_model_file(g, "/tmp/ramiel_test_model.rmb");
  Graph b = load_model_file("/tmp/ramiel_test_model.rmb");
  expect_graphs_equal(g, b);
  EXPECT_THROW(save_model_file(g, "/tmp/ramiel_test_model.xyz"), Error);
  EXPECT_THROW(load_model_file("/tmp/ramiel_does_not_exist.rml"), ParseError);
}

TEST(BinaryFormat, RoundTripsRealModel) {
  // End-to-end: a full evaluation model survives binary serialization.
  Graph g = models::build("squeezenet");
  std::stringstream ss;
  save_model_binary(g, ss);
  Graph loaded = load_model_binary(ss);
  expect_graphs_equal(g, loaded);
  EXPECT_NO_THROW(loaded.validate());
}

TEST(TextFormat, RoundTripsRealModelStructure) {
  Graph g = models::build("googlenet");
  Graph loaded = load_model_text(save_model_text(g));
  expect_graphs_equal(g, loaded);
  EXPECT_NO_THROW(loaded.validate());
}

}  // namespace
}  // namespace ramiel

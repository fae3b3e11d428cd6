#include <fstream>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/shape_inference.h"
#include "onnx/model_io.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "support/check.h"
#include "support/string_util.h"
#include "test_util.h"

namespace ramiel {
namespace {

/// Helper: build a single-node graph over the given input shapes, run
/// inference, and return the output shape.
struct Single {
  Graph g{"single"};
  NodeId node = kNoNode;

  Single(OpKind kind, const std::vector<Shape>& input_shapes, Attrs attrs = {}) {
    std::vector<ValueId> ins;
    for (std::size_t i = 0; i < input_shapes.size(); ++i) {
      ValueId v = g.add_value(str_cat("in", i), input_shapes[i]);
      g.mark_input(v);
      ins.push_back(v);
    }
    node = g.add_node(kind, "n", ins, 1, std::move(attrs));
    g.mark_output(g.node(node).outputs[0]);
    infer_shapes(g);
  }

  const Shape& out() const { return g.value(g.node(node).outputs[0]).shape; }
};

TEST(ShapeInference, Conv2dSamePadding) {
  Single s(OpKind::kConv2d, {Shape{1, 3, 8, 8}, Shape{16, 3, 3, 3}},
           Attrs{}.set("kernel", 3).set("stride", 1).set("pad", 1));
  EXPECT_EQ(s.out(), Shape({1, 16, 8, 8}));
}

TEST(ShapeInference, Conv2dStrided) {
  Single s(OpKind::kConv2d, {Shape{1, 3, 9, 9}, Shape{8, 3, 3, 3}},
           Attrs{}.set("kernel", 3).set("stride", 2).set("pad", 1));
  EXPECT_EQ(s.out(), Shape({1, 8, 5, 5}));
}

TEST(ShapeInference, PoolingShapes) {
  Single mx(OpKind::kMaxPool, {Shape{1, 4, 8, 8}},
            Attrs{}.set("kernel", 3).set("stride", 2).set("pad", 1));
  EXPECT_EQ(mx.out(), Shape({1, 4, 4, 4}));
  Single gap(OpKind::kGlobalAvgPool, {Shape{1, 4, 8, 8}});
  EXPECT_EQ(gap.out(), Shape({1, 4, 1, 1}));
}

TEST(ShapeInference, MatMulBatched) {
  Single s(OpKind::kMatMul, {Shape{2, 3, 4, 5}, Shape{2, 3, 5, 6}});
  EXPECT_EQ(s.out(), Shape({2, 3, 4, 6}));
  Single b(OpKind::kMatMul, {Shape{2, 4, 5}, Shape{5, 7}});
  EXPECT_EQ(b.out(), Shape({2, 4, 7}));
}

TEST(ShapeInference, GemmTransposes) {
  Single s(OpKind::kGemm, {Shape{4, 3}, Shape{5, 4}},
           Attrs{}.set("trans_a", 1).set("trans_b", 1));
  EXPECT_EQ(s.out(), Shape({3, 5}));
}

TEST(ShapeInference, BroadcastBinary) {
  Single s(OpKind::kAdd, {Shape{2, 1, 4}, Shape{3, 1}});
  EXPECT_EQ(s.out(), Shape({2, 3, 4}));
}

TEST(ShapeInference, ConcatSumsAxis) {
  Graph g("t");
  ValueId a = g.add_value("a", Shape{1, 2, 4});
  ValueId b = g.add_value("b", Shape{1, 3, 4});
  g.mark_input(a);
  g.mark_input(b);
  NodeId n = g.add_node(OpKind::kConcat, "c", {a, b}, 1, Attrs{}.set("axis", 1));
  g.mark_output(g.node(n).outputs[0]);
  infer_shapes(g);
  EXPECT_EQ(g.value(g.node(n).outputs[0]).shape, Shape({1, 5, 4}));
}

TEST(ShapeInference, SliceAndStride) {
  Single s(OpKind::kSlice, {Shape{1, 10}},
           Attrs{}.set("axis", 1).set("begin", 2).set("end", 9).set("step", 2));
  EXPECT_EQ(s.out(), Shape({1, 4}));
}

TEST(ShapeInference, TransposeAndFlatten) {
  Single t(OpKind::kTranspose, {Shape{1, 2, 3, 4}},
           Attrs{}.set("perm", std::vector<std::int64_t>{0, 2, 1, 3}));
  EXPECT_EQ(t.out(), Shape({1, 3, 2, 4}));
  Single f(OpKind::kFlatten, {Shape{2, 3, 4}}, Attrs{}.set("axis", 1));
  EXPECT_EQ(f.out(), Shape({2, 12}));
}

TEST(ShapeInference, ReshapeFromAttr) {
  Single s(OpKind::kReshape, {Shape{2, 6}},
           Attrs{}.set("shape", std::vector<std::int64_t>{3, -1}));
  EXPECT_EQ(s.out(), Shape({3, 4}));
}

TEST(ShapeInference, ReshapeFromConstInput) {
  Graph g("t");
  ValueId x = g.add_value("x", Shape{2, 6});
  g.mark_input(x);
  ValueId shp = g.add_initializer("shp", Tensor::vec({4, 3}));
  NodeId n = g.add_node(OpKind::kReshape, "r", {x, shp});
  g.mark_output(g.node(n).outputs[0]);
  infer_shapes(g);
  EXPECT_EQ(g.value(g.node(n).outputs[0]).shape, Shape({4, 3}));
}

TEST(ShapeInference, DynamicReshapeStaysUnknownUntilFoldable) {
  Graph g("t");
  ValueId x = g.add_value("x", Shape{2, 6});
  g.mark_input(x);
  NodeId shp = g.add_node(OpKind::kShape, "s", {x});
  NodeId r = g.add_node(OpKind::kReshape, "r", {x, g.node(shp).outputs[0]});
  g.mark_output(g.node(r).outputs[0]);
  infer_shapes(g);
  // Shape node output is [2] (rank), reshape output unknown (rank 0).
  EXPECT_EQ(g.value(g.node(shp).outputs[0]).shape, Shape({2}));
  EXPECT_EQ(g.value(g.node(r).outputs[0]).shape.rank(), 0);
  EXPECT_THROW(require_static_shapes(g), ValidationError);
}

TEST(ShapeInference, UnsqueezeSqueeze) {
  Single u(OpKind::kUnsqueeze, {Shape{2, 3}},
           Attrs{}.set("axes", std::vector<std::int64_t>{0, 3}));
  EXPECT_EQ(u.out(), Shape({1, 2, 3, 1}));
  Single q(OpKind::kSqueeze, {Shape{1, 2, 1, 3}},
           Attrs{}.set("axes", std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(q.out(), Shape({2, 3}));
}

TEST(ShapeInference, ReduceMeanKeepdims) {
  Single s(OpKind::kReduceMean, {Shape{2, 3, 4}},
           Attrs{}.set("axes", std::vector<std::int64_t>{-1}));
  EXPECT_EQ(s.out(), Shape({2, 3, 1}));
}

TEST(ShapeInference, GatherShapes) {
  Graph g("t");
  ValueId x = g.add_value("x", Shape{5, 7});
  g.mark_input(x);
  ValueId idx = g.add_initializer("idx", Tensor::vec({0, 2, 4}));
  NodeId n = g.add_node(OpKind::kGather, "g", {x, idx}, 1,
                        Attrs{}.set("axis", 0));
  g.mark_output(g.node(n).outputs[0]);
  infer_shapes(g);
  EXPECT_EQ(g.value(g.node(n).outputs[0]).shape, Shape({3, 7}));
}

TEST(ShapeInference, ReturnsNumberFilled) {
  Graph g = testing::make_chain_graph();  // already inferred by helper
  EXPECT_EQ(infer_shapes(g), 0);          // second run fills nothing new
}

TEST(ShapeInference, BroadcastZeroAgainstOne) {
  Single s(OpKind::kAdd, {Shape{0, 3}, Shape{1, 3}});
  EXPECT_EQ(s.out(), Shape({0, 3}));
}

/// Writes a one-node text model to a temp file and loads it back through
/// model_io, as `ramiel analyze file.rml` does. `decls` declares the node's
/// inputs and initializers.
Graph load_one_node_model(const std::string& file, const std::string& node,
                          const std::string& decls = "input \"x\" [2, 8]") {
  const std::string path = ::testing::TempDir() + file;
  std::ofstream(path) << "ramiel-onnx-lite v1\nmodel \"m\"\n"
                      << decls << "\n"
                      << node << "\noutput \"y\"\n";
  return load_model_file(path);
}

TEST(ShapeInference, SliceStepZeroIsAnErrorNotACrash) {
  const std::string node =
      "node Slice \"s\" in(\"x\") out(\"y\") "
      "attrs(axis=1, begin=0, end=4, step=0)";
  Graph g = load_one_node_model("slice_step0.rml", node);
  EXPECT_THROW(infer_shapes(g), Error);
  EXPECT_THROW(compile_model(load_one_node_model("slice_step0.rml", node)),
               Error);
}

TEST(ShapeInference, TransposeRejectsNonPermutation) {
  for (const char* perm : {"[-1, 0]", "[1, 1]", "[0, 2]"}) {
    const std::string node =
        std::string("node Transpose \"t\" in(\"x\") out(\"y\") attrs(perm=") +
        perm + ")";
    Graph g = load_one_node_model("transpose_bad_perm.rml", node);
    EXPECT_THROW(infer_shapes(g), Error) << perm;
  }
  Graph ok = load_one_node_model(
      "transpose_ok.rml",
      "node Transpose \"t\" in(\"x\") out(\"y\") attrs(perm=[1, 0])");
  infer_shapes(ok);
  EXPECT_EQ(ok.value(ok.find_value("y")).shape, Shape({8, 2}));
}

TEST(ShapeInference, WindowAttrsBelowOneAreErrorsNotCrashes) {
  const std::string image = "input \"x\" [1, 2, 8, 8]";
  const struct {
    const char* file;
    const char* node;
    std::string decls;
  } cases[] = {
      {"maxpool_stride0.rml",
       "node MaxPool \"p\" in(\"x\") out(\"y\") attrs(kernel=2, stride=0)",
       image},
      {"avgpool_kernel0.rml",
       "node AveragePool \"p\" in(\"x\") out(\"y\") attrs(kernel=0)", image},
      {"conv_stride0.rml",
       "node Conv \"c\" in(\"x\", \"w\") out(\"y\") attrs(stride=0)",
       "input \"x\" [1, 1, 8, 8]\ninit \"w\" [1, 1, 1, 1] { 1 }"},
      {"conv_dilation0.rml",
       "node Conv \"c\" in(\"x\", \"w\") out(\"y\") attrs(dilation=0)",
       "input \"x\" [1, 1, 8, 8]\ninit \"w\" [1, 1, 1, 1] { 1 }"},
  };
  for (const auto& c : cases) {
    Graph g = load_one_node_model(c.file, c.node, c.decls);
    EXPECT_THROW(infer_shapes(g), Error) << c.file;
    EXPECT_THROW(compile_model(load_one_node_model(c.file, c.node, c.decls)),
                 Error)
        << c.file;
  }
}

TEST(ShapeInference, ZeroExtentRowOpsRunToAnEmptyOutput) {
  const struct {
    const char* file;
    const char* node;
    std::string decls;
  } cases[] = {
      {"softmax_empty.rml",
       "node Softmax \"s\" in(\"x\") out(\"y\") attrs(axis=-1)",
       "input \"x\" [2, 0]"},
      {"layernorm_empty.rml",
       "node LayerNormalization \"l\" in(\"x\", \"g\", \"b\") out(\"y\")",
       "input \"x\" [2, 0]\ninit \"g\" [0] { }\ninit \"b\" [0] { }"},
  };
  for (const auto& c : cases) {
    Graph g = load_one_node_model(c.file, c.node, c.decls);
    infer_shapes(g);
    const auto out =
        SequentialExecutor(&g).run(testing::example_inputs(g, 1, 1));
    ASSERT_EQ(out.size(), 1u) << c.file;
    EXPECT_EQ(out[0].at("y").shape(), Shape({2, 0})) << c.file;
  }
}

TEST(ShapeInference, NegativeDimIsAParseError) {
  try {
    load_one_node_model("negative_dim.rml",
                        "node Relu \"r\" in(\"x\") out(\"y\")",
                        "input \"x\" [2, -3]");
    FAIL() << "negative dim accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("negative dimension -3"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShapeInference, GemmBiasMustBroadcastToTheOutput) {
  for (const Shape& bias : {Shape{3}, Shape{1, 3}, Shape{2, 1}, Shape{2, 3},
                            Shape{1}, Shape{1, 1}}) {
    Single s(OpKind::kGemm, {Shape{2, 4}, Shape{4, 3}, bias});
    EXPECT_EQ(s.out(), Shape({2, 3})) << bias.to_string();
  }
  for (const Shape& bias : {Shape{2}, Shape{3, 2}, Shape{2, 2}, Shape{1, 2, 3}}) {
    EXPECT_THROW(Single(OpKind::kGemm, {Shape{2, 4}, Shape{4, 3}, bias}), Error)
        << bias.to_string();
  }
}

}  // namespace
}  // namespace ramiel

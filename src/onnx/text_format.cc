// Text encoding of onnx-lite. Line oriented:
//
//   ramiel-onnx-lite v1
//   model "squeezenet"
//   input "data" [1, 3, 64, 64]
//   init "conv1_w" [16, 3, 3, 3] {0.1 -0.2 ...}
//   node Conv "conv1" in("data", "conv1_w") out("conv1_out") attrs(stride=2, kernel=3)
//   constdata "shape_const_out" [2] {1 -1}
//   output "probs"
//
// Attribute values: integers (no dot), floats (dot/exponent), quoted strings,
// and [int, int, ...] lists.
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "onnx/model_io.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

void write_shape(std::ostream& os, const Shape& s) {
  os << "[";
  for (int i = 0; i < s.rank(); ++i) {
    if (i) os << ", ";
    os << s.dim(i);
  }
  os << "]";
}

void write_floats(std::ostream& os, std::span<const float> data) {
  os << "{";
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i) os << " ";
    // Max-precision round-trip formatting.
    std::ostringstream tmp;
    tmp.precision(9);
    tmp << data[i];
    os << tmp.str();
  }
  os << "}";
}

void write_attrs(std::ostream& os, const Attrs& attrs) {
  if (attrs.size() == 0) return;
  os << " attrs(";
  bool first = true;
  for (const auto& [key, value] : attrs.entries()) {
    if (!first) os << ", ";
    first = false;
    os << key << "=";
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      os << *i;
    } else if (const auto* d = std::get_if<double>(&value)) {
      std::ostringstream tmp;
      tmp.precision(17);
      tmp << *d;
      std::string repr = tmp.str();
      if (repr.find('.') == std::string::npos &&
          repr.find('e') == std::string::npos &&
          repr.find("inf") == std::string::npos &&
          repr.find("nan") == std::string::npos) {
        repr += ".0";
      }
      os << repr;
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      os << '"' << escape(*s) << '"';
    } else if (const auto* v = std::get_if<std::vector<std::int64_t>>(&value)) {
      os << "[";
      for (std::size_t i = 0; i < v->size(); ++i) {
        if (i) os << ", ";
        os << (*v)[i];
      }
      os << "]";
    }
  }
  os << ")";
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Cursor over one line of input.
class LineParser {
 public:
  LineParser(std::string_view line, int lineno) : s_(line), lineno_(lineno) {}

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Next non-whitespace char without consuming it ('\0' at end of line).
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  void expect(char c) {
    if (!try_consume(c)) fail(str_cat("expected '", c, "'"));
  }

  /// Bare word: [A-Za-z0-9_]+
  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    return std::string(s_.substr(start, pos_ - start));
  }

  std::string quoted() {
    expect('"');
    std::size_t start = pos_;
    while (pos_ < s_.size()) {
      if (s_[pos_] == '\\') {
        pos_ += 2;
        continue;
      }
      if (s_[pos_] == '"') break;
      ++pos_;
    }
    if (pos_ >= s_.size()) fail("unterminated string literal");
    std::string out = unescape(s_.substr(start, pos_ - start));
    ++pos_;  // closing quote
    return out;
  }

  std::int64_t integer() {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    return convert(std::string(s_.substr(start, pos_ - start)),
                   [](const std::string& t) { return std::stoll(t); });
  }

  /// std::stoll/std::stod on one token: a malformed or out-of-range number
  /// is a ParseError at this line, not a std::logic_error.
  template <typename Parse>
  auto convert(const std::string& tok, Parse parse) -> decltype(parse(tok)) {
    try {
      return parse(tok);
    } catch (const std::logic_error&) {
      fail(str_cat("bad number '", tok, "'"));
    }
  }

  /// Number token; returns true if it was a float (had '.' or exponent).
  bool number(std::int64_t* i, double* d) {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool is_float = false;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_float = true;
        ++pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected number");
    const std::string tok(s_.substr(start, pos_ - start));
    if (is_float) {
      *d = convert(tok, [](const std::string& t) { return std::stod(t); });
    } else {
      *i = convert(tok, [](const std::string& t) { return std::stoll(t); });
    }
    return is_float;
  }

  float float_token() {
    std::int64_t i = 0;
    double d = 0;
    if (number(&i, &d)) return static_cast<float>(d);
    return static_cast<float>(i);
  }

  Shape shape() {
    expect('[');
    std::vector<std::int64_t> dims;
    if (!try_consume(']')) {
      dims.push_back(dim());
      while (try_consume(',')) dims.push_back(dim());
      expect(']');
    }
    Shape shape(std::move(dims));
    if (!shape.within_element_limit()) {
      fail("shape has more than 2^40 elements");
    }
    return shape;
  }

  std::int64_t dim() {
    const std::int64_t d = integer();
    if (d < 0) fail(str_cat("negative dimension ", d));
    return d;
  }

  std::vector<float> float_block() {
    expect('{');
    std::vector<float> out;
    while (!try_consume('}')) out.push_back(float_token());
    return out;
  }

  [[noreturn]] void fail(const std::string& why) {
    throw ParseError(str_cat("line ", lineno_, ", col ", pos_ + 1, ": ", why));
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  int lineno_;
};

}  // namespace

void save_model_text(const Graph& graph, std::ostream& os) {
  os << "ramiel-onnx-lite v1\n";
  os << "model \"" << escape(graph.name()) << "\"\n";
  for (ValueId in : graph.inputs()) {
    const Value& v = graph.value(in);
    os << "input \"" << escape(v.name) << "\" ";
    write_shape(os, v.shape);
    os << "\n";
  }
  for (const Value& v : graph.values()) {
    if (!v.is_constant() || v.producer != kNoNode) continue;
    os << "init \"" << escape(v.name) << "\" ";
    write_shape(os, v.const_data->shape());
    os << " ";
    write_floats(os, v.const_data->data());
    os << "\n";
  }
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    os << "node " << op_kind_name(n.kind) << " \"" << escape(n.name)
       << "\" in(";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i) os << ", ";
      os << '"' << escape(graph.value(n.inputs[i]).name) << '"';
    }
    os << ") out(";
    for (std::size_t i = 0; i < n.outputs.size(); ++i) {
      if (i) os << ", ";
      os << '"' << escape(graph.value(n.outputs[i]).name) << '"';
    }
    os << ")";
    write_attrs(os, n.attrs);
    os << "\n";
  }
  // Node-produced constant values (Constant op payloads).
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    for (ValueId out : n.outputs) {
      const Value& v = graph.value(out);
      if (!v.is_constant()) continue;
      os << "constdata \"" << escape(v.name) << "\" ";
      write_shape(os, v.const_data->shape());
      os << " ";
      write_floats(os, v.const_data->data());
      os << "\n";
    }
  }
  for (ValueId out : graph.outputs()) {
    os << "output \"" << escape(graph.value(out).name) << "\"\n";
  }
}

std::string save_model_text(const Graph& graph) {
  std::ostringstream os;
  save_model_text(graph, os);
  return os.str();
}

Graph load_model_text(std::istream& is) {
  std::string line;
  int lineno = 0;

  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineno;
      std::string_view t = trim(line);
      if (t.empty() || t[0] == '#') continue;
      return true;
    }
    return false;
  };

  RAMIEL_CHECK(next_line(), "empty model file");
  if (trim(line) != "ramiel-onnx-lite v1") {
    throw ParseError("bad magic: expected 'ramiel-onnx-lite v1'");
  }

  Graph g;
  bool saw_model = false;
  while (next_line()) {
    LineParser p(trim(line), lineno);
    const std::string kw = p.word();
    if (kw == "model") {
      g.set_name(p.quoted());
      saw_model = true;
    } else if (kw == "input") {
      const std::string name = p.quoted();
      Shape s = p.shape();
      ValueId v = g.add_value(name, std::move(s));
      g.mark_input(v);
    } else if (kw == "init") {
      const std::string name = p.quoted();
      Shape s = p.shape();
      std::vector<float> data = p.float_block();
      if (static_cast<std::int64_t>(data.size()) != s.numel()) {
        p.fail(str_cat("initializer '", name, "' has ", data.size(),
                       " values but shape needs ", s.numel()));
      }
      g.add_initializer(name, Tensor(std::move(s), std::move(data)));
    } else if (kw == "node") {
      const std::string op_name = p.word();
      auto kind = op_kind_from_name(op_name);
      if (!kind) p.fail(str_cat("unknown op '", op_name, "'"));
      const std::string node_name = p.quoted();
      // in(...)
      const std::string in_kw = p.word();
      if (in_kw != "in") p.fail("expected in(...)");
      p.expect('(');
      std::vector<ValueId> inputs;
      if (!p.try_consume(')')) {
        do {
          const std::string vn = p.quoted();
          ValueId v = g.find_value(vn);
          if (v < 0) p.fail(str_cat("node input '", vn, "' is not defined"));
          inputs.push_back(v);
        } while (p.try_consume(','));
        p.expect(')');
      }
      // out(...)
      const std::string out_kw = p.word();
      if (out_kw != "out") p.fail("expected out(...)");
      p.expect('(');
      std::vector<std::string> outputs;
      do {
        outputs.push_back(p.quoted());
      } while (p.try_consume(','));
      p.expect(')');
      // attrs(...)
      Attrs attrs;
      if (!p.at_end()) {
        const std::string attrs_kw = p.word();
        if (attrs_kw != "attrs") p.fail("expected attrs(...)");
        p.expect('(');
        if (!p.try_consume(')')) {
          do {
            const std::string key = p.word();
            p.expect('=');
            if (p.try_consume('[')) {
              std::vector<std::int64_t> list;
              if (!p.try_consume(']')) {
                list.push_back(p.integer());
                while (p.try_consume(',')) list.push_back(p.integer());
                p.expect(']');
              }
              attrs.set(key, std::move(list));
            } else if (p.peek() == '"') {
              attrs.set(key, p.quoted());
            } else {
              std::int64_t i = 0;
              double d = 0;
              if (p.number(&i, &d)) {
                attrs.set(key, d);
              } else {
                attrs.set(key, i);
              }
            }
          } while (p.try_consume(','));
          p.expect(')');
        }
      }
      g.add_node_named_outputs(*kind, node_name, inputs, outputs,
                               std::move(attrs));
    } else if (kw == "constdata") {
      const std::string name = p.quoted();
      Shape s = p.shape();
      std::vector<float> data = p.float_block();
      ValueId v = g.find_value(name);
      if (v < 0) p.fail(str_cat("constdata for unknown value '", name, "'"));
      g.value(v).const_data = Tensor(std::move(s), std::move(data));
      g.value(v).shape = g.value(v).const_data->shape();
    } else if (kw == "output") {
      const std::string name = p.quoted();
      ValueId v = g.find_value(name);
      if (v < 0) p.fail(str_cat("graph output '", name, "' is not defined"));
      g.mark_output(v);
    } else {
      p.fail(str_cat("unknown keyword '", kw, "'"));
    }
  }
  if (!saw_model) throw ParseError("missing 'model' line");
  return g;
}

Graph load_model_text(const std::string& text) {
  std::istringstream is(text);
  return load_model_text(is);
}

}  // namespace ramiel

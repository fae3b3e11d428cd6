// Binary encoding of onnx-lite. Layout (all integers little-endian):
//
//   magic   "RMLB"            4 bytes
//   version u32 = 1
//   name    str
//   u32 num_inputs    { str name; shape }
//   u32 num_inits     { str name; tensor }
//   u32 num_nodes     { str op; str name; u32 nin {str}; u32 nout {str};
//                       u32 nattrs { str key; u8 tag; payload } }
//   u32 num_constdata { str value_name; tensor }
//   u32 num_outputs   { str name }
//
//   str    = u32 len + bytes
//   shape  = u32 rank + i64 dims
//   tensor = shape + f32 data (numel)
//   attr tags: 0 = i64, 1 = f64, 2 = str, 3 = i64 list (u32 count + i64s)
#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "onnx/model_io.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

// -- primitive writers -------------------------------------------------------

template <typename T>
void put(std::ostream& os, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_str(std::ostream& os, std::string_view s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void put_shape(std::ostream& os, const Shape& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.rank()));
  for (std::int64_t d : s.dims()) put<std::int64_t>(os, d);
}

void put_tensor(std::ostream& os, const Tensor& t) {
  // The v1 payload is f32-only; low-precision storage (a graph saved after
  // the quantize pass) widens back to fp32 on export. Quantization is a
  // compile-time decision (`--dtype`), not a serialized property — reload
  // and re-quantize to get compact weights back.
  const Tensor wide = t.dtype() == DType::kI8
                          ? t.dequantize()
                          : (t.dtype() == DType::kF32 ? t : t.cast(DType::kF32));
  put_shape(os, wide.shape());
  auto d = wide.data();
  os.write(reinterpret_cast<const char*>(d.data()),
           static_cast<std::streamsize>(d.size() * sizeof(float)));
}

// -- primitive readers -------------------------------------------------------

template <typename T>
T get(std::istream& is) {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw ParseError("unexpected end of binary model");
  return v;
}

/// Reads `count` items of T. The buffer grows with the bytes actually read,
/// so a corrupt count cannot allocate more than the stream holds.
template <typename T>
std::vector<T> get_array(std::istream& is, std::uint64_t count) {
  constexpr std::uint64_t kChunk = (1u << 20) / sizeof(T);
  std::vector<T> out;
  while (out.size() < count) {
    const std::size_t at = out.size();
    out.resize(at + std::min<std::uint64_t>(kChunk, count - at));
    is.read(reinterpret_cast<char*>(out.data() + at),
            static_cast<std::streamsize>((out.size() - at) * sizeof(T)));
    if (!is) throw ParseError("unexpected end of binary model");
  }
  return out;
}

std::string get_str(std::istream& is) {
  const std::uint32_t len = get<std::uint32_t>(is);
  RAMIEL_CHECK(len < (1u << 28), "implausible string length in binary model");
  const std::vector<char> bytes = get_array<char>(is, len);
  return std::string(bytes.begin(), bytes.end());
}

Shape get_shape(std::istream& is) {
  const std::uint32_t rank = get<std::uint32_t>(is);
  RAMIEL_CHECK(rank <= 16, "implausible tensor rank in binary model");
  std::vector<std::int64_t> dims;
  dims.reserve(rank);
  for (std::uint32_t i = 0; i < rank; ++i) {
    const auto d = get<std::int64_t>(is);
    if (d < 0) {
      throw ParseError(str_cat("negative dimension ", d, " in binary model"));
    }
    dims.push_back(d);
  }
  Shape shape(std::move(dims));
  if (!shape.within_element_limit()) {
    throw ParseError("shape has more than 2^40 elements in binary model");
  }
  return shape;
}

Tensor get_tensor(std::istream& is) {
  Shape s = get_shape(is);
  const std::int64_t n = s.numel();
  RAMIEL_CHECK(n >= 0 && n < (1ll << 32), "implausible tensor size");
  std::vector<float> data = get_array<float>(is, static_cast<std::uint64_t>(n));
  return Tensor(std::move(s), std::move(data));
}

}  // namespace

void save_model_binary(const Graph& graph, std::ostream& os) {
  os.write("RMLB", 4);
  put<std::uint32_t>(os, 1);
  put_str(os, graph.name());

  put<std::uint32_t>(os, static_cast<std::uint32_t>(graph.inputs().size()));
  for (ValueId in : graph.inputs()) {
    const Value& v = graph.value(in);
    put_str(os, v.name);
    put_shape(os, v.shape);
  }

  std::uint32_t num_inits = 0;
  for (const Value& v : graph.values()) {
    if (v.is_constant() && v.producer == kNoNode) ++num_inits;
  }
  put<std::uint32_t>(os, num_inits);
  for (const Value& v : graph.values()) {
    if (!v.is_constant() || v.producer != kNoNode) continue;
    put_str(os, v.name);
    put_tensor(os, *v.const_data);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(graph.live_node_count()));
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    put_str(os, op_kind_name(n.kind));
    put_str(os, n.name);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(n.inputs.size()));
    for (ValueId v : n.inputs) put_str(os, graph.value(v).name);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(n.outputs.size()));
    for (ValueId v : n.outputs) put_str(os, graph.value(v).name);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(n.attrs.size()));
    for (const auto& [key, value] : n.attrs.entries()) {
      put_str(os, key);
      if (const auto* i = std::get_if<std::int64_t>(&value)) {
        put<std::uint8_t>(os, 0);
        put<std::int64_t>(os, *i);
      } else if (const auto* d = std::get_if<double>(&value)) {
        put<std::uint8_t>(os, 1);
        put<double>(os, *d);
      } else if (const auto* s = std::get_if<std::string>(&value)) {
        put<std::uint8_t>(os, 2);
        put_str(os, *s);
      } else if (const auto* l = std::get_if<std::vector<std::int64_t>>(&value)) {
        put<std::uint8_t>(os, 3);
        put<std::uint32_t>(os, static_cast<std::uint32_t>(l->size()));
        for (std::int64_t x : *l) put<std::int64_t>(os, x);
      }
    }
  }

  std::uint32_t num_constdata = 0;
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    for (ValueId out : n.outputs) {
      if (graph.value(out).is_constant()) ++num_constdata;
    }
  }
  put<std::uint32_t>(os, num_constdata);
  for (const Node& n : graph.nodes()) {
    if (n.dead) continue;
    for (ValueId out : n.outputs) {
      const Value& v = graph.value(out);
      if (!v.is_constant()) continue;
      put_str(os, v.name);
      put_tensor(os, *v.const_data);
    }
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(graph.outputs().size()));
  for (ValueId out : graph.outputs()) put_str(os, graph.value(out).name);
}

Graph load_model_binary(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, "RMLB", 4) != 0) {
    throw ParseError("bad magic in binary model");
  }
  const std::uint32_t version = get<std::uint32_t>(is);
  if (version != 1) {
    throw ParseError(str_cat("unsupported binary model version ", version));
  }
  Graph g(get_str(is));

  const std::uint32_t num_inputs = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    std::string name = get_str(is);
    Shape s = get_shape(is);
    g.mark_input(g.add_value(name, std::move(s)));
  }

  const std::uint32_t num_inits = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < num_inits; ++i) {
    std::string name = get_str(is);
    g.add_initializer(name, get_tensor(is));
  }

  const std::uint32_t num_nodes = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    std::string op = get_str(is);
    auto kind = op_kind_from_name(op);
    if (!kind) throw ParseError(str_cat("unknown op '", op, "' in binary model"));
    std::string name = get_str(is);
    const std::uint32_t nin = get<std::uint32_t>(is);
    std::vector<ValueId> inputs;
    for (std::uint32_t j = 0; j < nin; ++j) {
      std::string vn = get_str(is);
      ValueId v = g.find_value(vn);
      if (v < 0) {
        throw ParseError(str_cat("node input '", vn, "' is not defined"));
      }
      inputs.push_back(v);
    }
    const std::uint32_t nout = get<std::uint32_t>(is);
    std::vector<std::string> outputs;
    for (std::uint32_t j = 0; j < nout; ++j) outputs.push_back(get_str(is));
    const std::uint32_t nattrs = get<std::uint32_t>(is);
    Attrs attrs;
    for (std::uint32_t j = 0; j < nattrs; ++j) {
      std::string key = get_str(is);
      const std::uint8_t tag = get<std::uint8_t>(is);
      switch (tag) {
        case 0: attrs.set(key, get<std::int64_t>(is)); break;
        case 1: attrs.set(key, get<double>(is)); break;
        case 2: attrs.set(key, get_str(is)); break;
        case 3: {
          const std::uint32_t count = get<std::uint32_t>(is);
          attrs.set(key, get_array<std::int64_t>(is, count));
          break;
        }
        default:
          throw ParseError(str_cat("unknown attribute tag ", int{tag}));
      }
    }
    g.add_node_named_outputs(*kind, name, inputs, outputs, std::move(attrs));
  }

  const std::uint32_t num_constdata = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < num_constdata; ++i) {
    std::string name = get_str(is);
    Tensor t = get_tensor(is);
    ValueId v = g.find_value(name);
    if (v < 0) throw ParseError(str_cat("constdata for unknown value '", name, "'"));
    g.value(v).shape = t.shape();
    g.value(v).const_data = std::move(t);
  }

  const std::uint32_t num_outputs = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < num_outputs; ++i) {
    std::string name = get_str(is);
    ValueId v = g.find_value(name);
    if (v < 0) throw ParseError(str_cat("graph output '", name, "' is not defined"));
    g.mark_output(v);
  }
  return g;
}

}  // namespace ramiel

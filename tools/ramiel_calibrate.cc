// ramiel_calibrate — records per-value dynamic ranges for the int8
// quantization pipeline.
//
//   ramiel_calibrate <model|file.rml> [--batches N] [--fold] [--clone]
//                    [--fuse-bn] [--fuse-act] [--patterns] [-o FILE]
//
// The graph goes through the same pipeline passes a compile would run
// (pass the same transform flags!) minus the quantize stage, then every
// node is evaluated in topological order over N random example batches and
// the absolute maximum of every non-constant value is accumulated. The
// output is one "name<TAB>absmax" line per value; `ramiel run|compile
// --dtype i8 --calib FILE` consumes it to stamp static activation scales
// on the quantized Conv/Gemm/MatMul nodes, replacing their per-call
// dynamic-range scans.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/op_eval.h"
#include "load_model.h"
#include "ramiel/pipeline.h"
#include "rt/inputs.h"
#include "support/string_util.h"
#include "tensor/kernels/kernels.h"

namespace {

using namespace ramiel;

int usage() {
  std::fprintf(stderr,
               "usage: ramiel_calibrate <model|file.rml> [--batches N]"
               " [--fold] [--clone] [--fuse-bn] [--fuse-act] [--patterns]"
               " [-o|--out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string out_path;
  int batches = 4;
  PipelineOptions options;
  options.generate_code = false;
  options.mem_planning = false;
  const std::string model = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fold") {
      options.constant_folding = true;
    } else if (arg == "--clone") {
      options.cloning = true;
    } else if (arg == "--fuse-bn") {
      options.pattern_overrides["fold-batch-norms"] = true;
    } else if (arg == "--fuse-act") {
      options.pattern_overrides["fuse-activations"] = true;
    } else if (arg == "--patterns") {
      options.pattern_rewrites = true;
    } else if (arg == "--batches" && i + 1 < argc) {
      batches = std::atoi(argv[++i]);
    } else if ((arg == "-o" || arg == "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (batches < 1) batches = 1;

  try {
    CompiledModel cm = compile_model(load_any(model), options);
    const Graph& g = cm.graph;
    if (out_path.empty()) out_path = g.name() + ".calib";

    // name -> accumulated absmax across every batch sample.
    std::unordered_map<std::string, float> ranges;
    auto record = [&](const Value& v, const Tensor& t) {
      if (t.dtype() != DType::kF32 || t.numel() == 0) return;
      const float m = kernels::absmax(t.raw(), t.dtype(),
                                      static_cast<std::size_t>(t.numel()));
      auto [it, inserted] = ranges.emplace(v.name, m);
      if (!inserted && m > it->second) it->second = m;
    };

    Rng rng(7);
    const auto samples = make_example_inputs(g, batches, rng);
    const std::vector<NodeId> order = g.topo_order();
    for (const TensorMap& sample : samples) {
      std::unordered_map<ValueId, Tensor> env;
      for (const Value& v : g.values()) {
        if (v.is_constant()) env.emplace(v.id, *v.const_data);
      }
      for (ValueId in : g.inputs()) {
        const Value& v = g.value(in);
        env.insert_or_assign(in, sample.at(v.name));
        record(v, sample.at(v.name));
      }
      for (NodeId id : order) {
        const Node& n = g.node(id);
        std::vector<Tensor> ins;
        ins.reserve(n.inputs.size());
        for (ValueId v : n.inputs) ins.push_back(env.at(v));
        std::vector<Tensor> outs = eval_node(n, ins);
        for (std::size_t i = 0; i < n.outputs.size(); ++i) {
          const Value& v = g.value(n.outputs[i]);
          record(v, outs[i]);
          env.insert_or_assign(n.outputs[i], std::move(outs[i]));
        }
      }
    }

    std::ofstream os(out_path);
    for (const Value& v : g.values()) {
      const auto it = ranges.find(v.name);
      if (it == ranges.end()) continue;
      os << it->first << '\t' << it->second << '\n';
    }
    os.close();
    std::printf("wrote %s (%zu value ranges, %d batches, model %s)\n",
                out_path.c_str(), ranges.size(), batches, g.name().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// ramiel_calibrate — records per-value dynamic ranges for the int8
// quantization pipeline.
//
//   ramiel_calibrate <model|file.rml> [--batches N] [--fold] [--clone]
//                    [--fuse-bn] [--fuse-act] [--patterns] [-o FILE]
//
// The graph goes through the same pipeline passes a compile would run
// (pass the same transform flags!) minus the quantize stage, then
// record_calibration evaluates every node in topological order over N
// random example batches and accumulates the absolute maximum of every
// non-constant value. The output (write_calibration) is one
// "name<TAB>absmax" line per value; `ramiel run|compile
// --dtype i8 --calib FILE` consumes it to stamp static activation scales
// on the quantized Conv/Gemm/MatMul nodes, replacing their per-call
// dynamic-range scans.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "load_model.h"
#include "ramiel/pipeline.h"
#include "rt/inputs.h"

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

    Rng rng(7);
    const auto ranges =
        record_calibration(g, make_example_inputs(g, batches, rng));
    write_calibration(g, ranges, out_path);
    std::printf("wrote %s (%zu value ranges, %d batches, model %s)\n",
                out_path.c_str(), ranges.size(), batches, g.name().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// Extension experiment: Conv+BatchNorm folding (the conclusion's "more
// powerful graph reductions"). Reports nodes removed and the effect on the
// LC-parallel makespan for the conv+bn models.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace ramiel;
  bench::print_header(
      "Extension — Conv+BatchNorm folding before clustering");
  std::printf("%-14s %9s %9s %9s | %10s %10s\n", "Model", "nodes", "folded",
              "nodes'", "S_LC", "S_LC+fuse");
  for (const std::string name :
       {"inception_v3", "inception_v4", "retinanet", "nasnet"}) {
    auto plain = bench::prepare(name);
    PipelineOptions o;
    o.pattern_overrides["fold-batch-norms"] = true;
    auto fused = bench::prepare(name, o);
    const double base_seq = bench::seq_ms(plain);
    std::printf("%-14s %9d %9d %9d | %9.2fx %9.2fx\n", name.c_str(),
                plain.compiled.graph.live_node_count(),
                fused.compiled.pattern_stats.count("fold-batch-norms"),
                fused.compiled.graph.live_node_count(),
                base_seq / bench::par_ms(plain),
                base_seq / bench::par_ms(fused));
  }
  return 0;
}

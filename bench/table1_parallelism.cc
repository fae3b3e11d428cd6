// Reproduces Table I: potential parallelism of the ML dataflow graphs
// (#nodes, weighted node cost, weighted critical path, parallelism factor).
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "passes/analysis.h"

int main() {
  using namespace ramiel;
  bench::print_header(
      "Table I — Potential parallelism in ML dataflow graphs\n"
      "(paper values in parentheses)");
  const std::map<std::string, std::array<double, 4>> paper = {
      {"squeezenet", {66, 187, 218, 0.86}},
      {"googlenet", {153, 373, 264, 1.4}},
      {"inception_v3", {238, 1136, 829, 1.37}},
      {"inception_v4", {339, 1763, 1334, 1.32}},
      {"yolo_v5", {280, 730, 619, 1.18}},
      {"retinanet", {450, 1291, 1102, 1.2}},
      {"bert", {963, 21357, 16870, 1.27}},
      {"nasnet", {1426, 8147, 2187, 3.7}},
  };
  std::printf("%-14s %12s %16s %14s %14s\n", "Model", "#Nodes", "Wt.NodeCost",
              "Wt.CP", "Parallelism");
  for (const std::string& name : models::model_names()) {
    Graph g = models::build(name);
    auto rep = analyze_parallelism(g);
    const auto& p = paper.at(name);
    std::printf("%-14s %5d (%4.0f) %7lld (%5.0f) %6lld (%5.0f) %5.2fx (%.2fx)\n",
                name.c_str(), rep.num_nodes, p[0],
                static_cast<long long>(rep.total_weight), p[1],
                static_cast<long long>(rep.critical_path), p[2],
                rep.parallelism, p[3]);
  }
  return 0;
}

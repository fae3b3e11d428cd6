// Reproduces Table III: cluster count after constant propagation and
// dead-code elimination for the three prunable models.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "passes/cluster_merging.h"
#include "passes/constant_folding.h"
#include "passes/linear_clustering.h"

int main() {
  using namespace ramiel;
  bench::print_header(
      "Table III — Cluster count post Constant Propagation + DCE\n"
      "(paper values in parentheses)");
  const std::map<std::string, std::pair<int, int>> paper = {
      {"yolo_v5", {12, 9}}, {"nasnet", {67, 9}}, {"bert", {5, 3}}};
  std::printf("%-10s %22s %22s %18s\n", "Model", "Before ConstProp",
              "After ConstProp", "Nodes removed");
  for (const std::string name : {"yolo_v5", "nasnet", "bert"}) {
    Graph before = models::build(name);
    Clustering merged_before =
        merge_clusters(before, linear_clustering(before));

    Graph after = models::build(name);
    const int nodes_before = after.live_node_count();
    constant_propagation_dce(after);
    after = after.compacted();
    Clustering merged_after =
        merge_clusters(after, linear_clustering(after));

    const auto& p = paper.at(name);
    std::printf("%-10s %14d (%3d) %14d (%3d) %14d\n", name.c_str(),
                merged_before.size(), p.first, merged_after.size(), p.second,
                nodes_before - after.live_node_count());
  }
  return 0;
}

// Reproduces Table II: number of clusters formed by Linear Clustering,
// before and after the cluster-merging pass.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "passes/cluster_merging.h"
#include "passes/linear_clustering.h"

int main() {
  using namespace ramiel;
  bench::print_header(
      "Table II — Clusters before/after Cluster Merging\n"
      "(paper values in parentheses)");
  const std::map<std::string, std::pair<int, int>> paper = {
      {"squeezenet", {9, 2}},    {"googlenet", {30, 4}},
      {"inception_v3", {38, 6}}, {"inception_v4", {55, 6}},
      {"yolo_v5", {29, 12}},     {"bert", {76, 5}},
      {"retinanet", {16, 10}},   {"nasnet", {244, 67}},
  };
  std::printf("%-14s %20s %20s\n", "Model", "Before Merging", "After Merging");
  for (const std::string& name : models::model_names()) {
    Graph g = models::build(name);
    Clustering lc = linear_clustering(g);
    Clustering merged = merge_clusters(g, lc);
    const auto& p = paper.at(name);
    std::printf("%-14s %10d (%3d) %13d (%3d)\n", name.c_str(), lc.size(),
                p.first, merged.size(), p.second);
  }
  return 0;
}

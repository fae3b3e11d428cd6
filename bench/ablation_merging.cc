// Ablation: what does the cluster-merging pass actually buy?
//
// Runs every model with raw Linear Clustering (one worker per linear path)
// and with merged clusters, comparing worker counts, cross-cluster message
// counts and simulated makespans. This quantifies the paper's §III-B
// argument that unmerged LC "leaves behind" many short clusters whose
// scheduling/communication overhead erodes the speedup (their NASNet
// discussion), and motivates merging as "vertical branch compression".
#include <cstdio>

#include "bench_util.h"
#include "passes/cluster_merging.h"
#include "passes/linear_clustering.h"

int main() {
  using namespace ramiel;
  bench::print_header(
      "Ablation — Linear Clustering with vs without cluster merging");
  std::printf("%-14s | %8s %8s %9s | %8s %8s %9s | %8s\n", "Model", "workers",
              "msgs", "speedup", "workers", "msgs", "speedup", "delta");
  std::printf("%-14s | %27s | %27s |\n", "", "unmerged LC", "merged");
  for (const std::string& name : models::model_names()) {
    Graph g = models::build(name);
    Clustering lc = linear_clustering(g);
    sort_clusters_topologically(g, lc);
    Clustering merged = merge_clusters(g, lc);

    Rng rng(7);
    CostProfile profile = measure_costs(g, bench::profile_repeats(), rng);
    SimOptions sim;
    const double seq = simulate_sequential_ms(g, profile, 1, sim);
    SimResult raw =
        simulate_parallel(g, build_hyperclusters(g, lc, 1), profile, sim);
    SimResult opt =
        simulate_parallel(g, build_hyperclusters(g, merged, 1), profile, sim);

    int raw_msgs = cross_cluster_edges(g, lc);
    int opt_msgs = cross_cluster_edges(g, merged);
    const double s_raw = seq / raw.makespan_ms;
    const double s_opt = seq / opt.makespan_ms;
    std::printf("%-14s | %8d %8d %8.2fx | %8d %8d %8.2fx | %+6.1f%%\n",
                name.c_str(), lc.size(), raw_msgs, s_raw, merged.size(),
                opt_msgs, s_opt, (s_opt / s_raw - 1.0) * 100.0);
  }
  return 0;
}

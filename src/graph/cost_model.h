// Static cost model from the paper (§III-A):
//
//   "heavy DL operations like Conv, Matmul etc. having higher cost than
//    simpler ones. Also a Conv using a bigger kernel of size 7x7 or 5x5 is
//    assigned a higher cost compared to those of size 3x3 or 1x1.
//    Elementwise operations like Relu are assigned a cost of 1. [...]
//    We also add a unit cost for each graph edge when computing the CP."
//
// One fixed table of integer weights, so Table-I-style summaries are
// deterministic. The numbers are calibrated so the Table I parallelism
// factors of the eight evaluation models land near the paper's:
//
//   Conv 7x7 14, 5x5 10, 3x3 6, 1x1 2;  MatMul 200 (transformer-scale, BERT);
//   Gemm 12 (classifier heads);  pooling/Resize 2;  BatchNorm/LayerNorm/
//   Softmax 2;  ReduceMean 2;  Embedding 4;  Constant 0;  data movement and
//   element-wise ops 1;  and kEdgeWeight per edge on the critical path.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace ramiel {

/// Per-edge overhead on the critical path.
inline constexpr std::int64_t kEdgeWeight = 1;

/// Static weight of one node.
std::int64_t node_weight(const Node& node);

/// Sum of node_weight over live nodes ("Wt. Cost of Nodes" in Table I).
std::int64_t total_weight(const Graph& graph);

}  // namespace ramiel

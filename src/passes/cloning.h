// Task cloning (paper §III-D, after Kruatrachue & Lewis's grain packing).
//
// A cheap node whose output fans out to several consumers forces either a
// shared cluster or cross-cluster messages. Cloning replicates the node so
// each consumer owns a private copy, letting linear clustering pull the copy
// into the consumer's path. Applied restrictively — shallow region of the
// graph, small node weight, bounded fan-out — because cloning trades
// redundant compute (and potential exponential blow-up) for communication.
#pragma once

#include "graph/graph.h"

namespace ramiel {

struct CloningOptions {
  /// Only nodes whose static weight is <= this are cloned.
  std::int64_t max_weight = 6;
  /// Only nodes within this fraction of the graph's depth from the top are
  /// considered ("mostly at the top half of the dataflow graphs").
  double depth_fraction = 0.5;
  /// Fan-out bounds: clone only when 2 <= consumers <= max_fanout.
  int max_fanout = 6;
  /// Hard cap on clones created, to bound graph growth.
  int max_clones = 128;
};

struct CloningStats {
  int nodes_cloned = 0;   // original nodes that were replicated
  int clones_created = 0; // total copies added
};

/// Clones eligible fan-out nodes in place. The original node is kept for
/// its first consumer; each further consumer gets a fresh copy.
CloningStats clone_tasks(Graph& graph, const CloningOptions& options = {});

}  // namespace ramiel

// Best-effort static shape inference over the dataflow IR.
//
// Walks the graph in topological order and fills Value::shape for every
// value whose shape is statically determined by its node's inputs and
// attributes. Values whose shape depends on non-constant data (e.g. a
// Reshape whose target shape flows in at runtime) are left with an empty
// (rank-0, numel-1) placeholder until constant folding resolves them —
// rerunning inference after folding fills in more shapes.
#pragma once

#include "graph/graph.h"

namespace ramiel {

/// Infers shapes for all node outputs where possible. Graph inputs and
/// initializers must already carry shapes. Returns the number of values
/// whose shape was newly determined. Throws Error on attributes no kernel
/// could run (a Slice step below 1, a Transpose perm that is not a
/// permutation).
int infer_shapes(Graph& graph);

/// Throws ValidationError if any live node output still has an undetermined
/// shape (used by the executors, which need fully static shapes).
void require_static_shapes(const Graph& graph);

}  // namespace ramiel

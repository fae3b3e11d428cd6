// Liveness analysis over the scheduled per-worker streams.
//
// Walks one (worker, sample) stream in its scheduled program order (the
// cluster's topological order, the same order the pinned placement walks) and
// computes a first-def/last-use interval for every value the stream's
// kernels will allocate. Alias-producing ops (Identity, Reshape, Flatten,
// Squeeze, Unsqueeze — their kernels return a reshaped view of the input
// buffer, not a fresh tensor) are folded into their input's interval: the
// alias class shares one storage slot whose lifetime covers every member's
// uses. Values with a consumer on another worker are kept live until the
// run joins (mem::kStepForever) because the receiver reads the sender's
// buffer from the shared value table at an arbitrary later point.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "mem/plan.h"
#include "passes/hypercluster.h"

namespace ramiel::mem {

/// Lifetime of one alias class within a stream.
struct ValueInterval {
  ValueId value = -1;       // class root: the value the kernel allocates
  std::int64_t numel = 0;   // element count of the allocation
  std::int64_t bytes = 0;   // payload bytes (numel * dtype element size)
  DType dtype = DType::kF32;  // storage dtype (set by the quantize pass)
  int def_step = 0;
  int last_step = 0;        // kStepForever when sent cross-worker
  bool heap = false;        // excluded from the arena (escapes the run)
};

/// Liveness result for one (worker, sample) stream.
struct StreamLiveness {
  std::vector<NodeId> stream;            // program order of the stream
  std::vector<ValueInterval> intervals;  // ordered by def_step
  /// Member value -> alias-class root, for every value whose storage the
  /// stream allocates (roots map to themselves).
  std::unordered_map<ValueId, ValueId> root_of;
  /// root -> index into `intervals`.
  std::unordered_map<ValueId, int> interval_of;
};

/// True for unary elementwise map ops that may safely write their output
/// over their (dying) input: every element is read exactly once, at the
/// index it is written.
bool op_inplace_unary(OpKind kind);

/// True for binary elementwise ops that may write in place over a dying
/// input *of the same shape as the output* (the non-broadcast operand).
bool op_inplace_binary(OpKind kind);

/// Computes liveness for the (worker, sample) stream of `hc`.
StreamLiveness analyze_stream(const Graph& graph, const Hyperclustering& hc,
                              int worker, int sample);

}  // namespace ramiel::mem

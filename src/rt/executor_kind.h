// The executor seam: which runtime executes a compiled model's
// hyperclustered program.
//
// Both concrete kinds are placements of the one task-graph executor,
// ParallelExecutor (rt/executor.h), which runs dependency-counted
// (node, sample) tasks with cross-cluster tensors as dependency edges:
//
//   kStatic — pinned: the paper's process-per-cluster model. Every task runs
//             on its hypercluster's worker, in that worker's cooperative
//             stream order. Predictable placement; load-balances poorly
//             when cluster costs are skewed.
//   kSteal  — work stealing (rt/steal/): a ready task runs on whichever
//             worker unlocked or steals it. Rebalances skew at run time.
//   kAuto   — serving-layer policy: pick kSteal when the compile report's
//             cluster-cost variance says the static placement is skewed
//             (resolved by ModelRegistry::add, serve/fleet/registry.h).
//             Never a concrete executor; resolve before make_executor().
//
// Selection plumbing: `--executor static|steal` on ramiel run,
// `--executor static|steal|auto` on ramiel_serve, RAMIEL_EXECUTOR for both.
#pragma once

#include <string>

#include "support/env.h"

namespace ramiel {

enum class ExecutorKind { kStatic, kSteal, kAuto };

inline const char* to_string(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kStatic: return "static";
    case ExecutorKind::kSteal: return "steal";
    case ExecutorKind::kAuto: return "auto";
  }
  return "static";
}

/// Parses "static" / "steal" (and "auto" when `allow_auto`). Returns false
/// on anything else, leaving *out untouched.
inline bool parse_executor_kind(const std::string& value, ExecutorKind* out,
                                bool allow_auto = false) {
  if (value == "static") {
    *out = ExecutorKind::kStatic;
    return true;
  }
  if (value == "steal") {
    *out = ExecutorKind::kSteal;
    return true;
  }
  if (allow_auto && value == "auto") {
    *out = ExecutorKind::kAuto;
    return true;
  }
  return false;
}

/// RAMIEL_EXECUTOR — deployment default for the executor seam. Unset or
/// unrecognized values return `fallback`; "auto" is honored only where the
/// caller can resolve it (serving).
inline ExecutorKind env_executor_kind(ExecutorKind fallback,
                                      bool allow_auto = false) {
  ExecutorKind kind = fallback;
  parse_executor_kind(env_str("RAMIEL_EXECUTOR", ""), &kind, allow_auto);
  return kind;
}

}  // namespace ramiel

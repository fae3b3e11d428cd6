// Fixed-point driver for the pattern registry: re-runs every enabled rule
// until no rule fires (at most eight rounds), enforcing the shared
// invariants from pattern.h around every single application. A rule that
// violates them — rebinding a graph output, leaving a stale consumer
// entry, breaking structural validity — fails loudly with ValidationError
// instead of corrupting the model.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ramiel::patterns {

struct PatternRunOptions {
  /// Per-pattern enable overrides by name; patterns absent from the map run
  /// iff enabled_by_default(). Unknown names are rejected (Error).
  std::unordered_map<std::string, bool> enable;
};

struct PatternRunStats {
  /// Rounds executed, including the final zero-rewrite round.
  int rounds = 0;
  /// Total rewrites across all patterns and rounds.
  int total_applied = 0;
  /// (pattern name, applied count) for every pattern that was enabled, in
  /// registry order; counts may be zero.
  std::vector<std::pair<std::string, int>> applied;

  /// Applied count for `name`; 0 when the pattern did not run.
  int count(std::string_view name) const;
};

/// Runs the enabled patterns on `g` to a fixed point.
PatternRunStats run_patterns(Graph& g, const PatternRunOptions& options = {});

}  // namespace ramiel::patterns

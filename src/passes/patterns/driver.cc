#include "passes/patterns/driver.h"

#include <algorithm>

#include "passes/patterns/registry.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel::patterns {
namespace {

/// Fixed-point bound: a round sweeps every enabled pattern over every live
/// node; the loop stops after the first round with zero rewrites.
constexpr int kMaxRounds = 8;

/// The model's interface: output value ids and their names, captured before
/// the run. Any apply() that changes either rebound the interface — the
/// exact bug class the driver exists to prevent.
struct OutputSnapshot {
  std::vector<ValueId> ids;
  std::vector<std::string> names;

  static OutputSnapshot capture(const Graph& g) {
    OutputSnapshot snap;
    snap.ids = g.outputs();
    snap.names.reserve(snap.ids.size());
    for (ValueId v : snap.ids) snap.names.push_back(g.value(v).name);
    return snap;
  }

  void verify(const Graph& g, std::string_view pattern) const {
    const std::vector<ValueId>& now = g.outputs();
    bool ok = now == ids;
    for (std::size_t i = 0; ok && i < now.size(); ++i) {
      ok = g.value(now[i]).name == names[i];
    }
    if (!ok) {
      throw ValidationError(
          str_cat("pattern '", pattern,
                  "' rebound the graph's output interface (a rewrite must "
                  "skip roots whose replaced values are graph outputs)"));
    }
  }
};

bool is_graph_output(const Graph& g, ValueId v) {
  return std::find(g.outputs().begin(), g.outputs().end(), v) !=
         g.outputs().end();
}

/// Shared driver guards for one matched root. Returns false when the match
/// must be vetoed (not an error — the rule simply does not fire here).
bool guards_pass(const Graph& g, const Pattern& p, NodeId root) {
  for (ValueId v : p.replaced_values(g, root)) {
    if (is_graph_output(g, v)) return false;
  }
  for (ValueId v : p.exclusive_values(g, root)) {
    if (g.value(v).consumers.size() != 1) return false;
  }
  return true;
}

}  // namespace

int PatternRunStats::count(std::string_view name) const {
  for (const auto& [n, c] : applied) {
    if (n == name) return c;
  }
  return 0;
}

PatternRunStats run_patterns(Graph& g, const PatternRunOptions& options) {
  const PatternRegistry& registry = pattern_registry();
  for (const auto& [name, on] : options.enable) {
    (void)on;
    RAMIEL_CHECK(registry.find(name) != nullptr,
                 str_cat("unknown pattern '", name, "'; registered: ",
                         join(registry.names(), ", ")));
  }

  std::vector<Pattern*> enabled;
  PatternRunStats stats;
  for (const auto& p : registry.patterns()) {
    auto it = options.enable.find(std::string(p->name()));
    const bool on =
        it != options.enable.end() ? it->second : p->enabled_by_default();
    if (!on) continue;
    enabled.push_back(p.get());
    stats.applied.emplace_back(std::string(p->name()), 0);
  }
  if (enabled.empty()) return stats;

  const OutputSnapshot interface = OutputSnapshot::capture(g);
  for (int round = 0; round < kMaxRounds; ++round) {
    ++stats.rounds;
    int fired = 0;
    for (std::size_t pi = 0; pi < enabled.size(); ++pi) {
      Pattern& p = *enabled[pi];
      // Snapshot candidate roots: rewrites may append nodes/values, and a
      // fresh node becomes a candidate only in the next round.
      std::vector<NodeId> roots;
      roots.reserve(g.nodes().size());
      for (const Node& n : g.nodes()) {
        if (!n.dead) roots.push_back(n.id);
      }
      for (NodeId root : roots) {
        if (g.node(root).dead) continue;  // killed by an earlier rewrite
        if (!p.match(g, root)) continue;
        if (!guards_pass(g, p, root)) continue;
        if (!p.apply(g, root)) continue;
        // Post-conditions, enforced on every single application so the
        // offending rule (not a later pass) is the one that fails.
        interface.verify(g, p.name());
        try {
          g.validate();
        } catch (const Error& e) {
          throw ValidationError(str_cat("pattern '", p.name(),
                                        "' left an invalid graph: ",
                                        e.what()));
        }
        ++fired;
        ++stats.applied[pi].second;
        ++stats.total_applied;
      }
    }
    if (fired == 0) break;
  }
  return stats;
}

}  // namespace ramiel::patterns

// Model registry: the fleet's name -> compiled-artifact table.
//
// Each entry is one tenant's compiled model (the full compile_model output)
// plus its serving config and the resolved executor kind (kAuto decided at
// load time from cluster_cost_cv; this is the one place it is resolved).
// Entries are handed out as shared_ptr<const ModelEntry> — a *versioned
// handle*: add() over an existing name compiles the replacement off to the
// side and atomically swaps the table pointer with a bumped version, so
// holders of the old handle (a dispatcher mid-batch, a pipeline mid-flight)
// keep a fully alive artifact until their shared_ptr drops. Nothing is
// mutated in place; remove() only detaches the name.
//
// Loading is pluggable (tests register synthetic graphs); the default
// loader builds models::build(spec) from the zoo.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ramiel/pipeline.h"
#include "rt/executor_kind.h"
#include "serve/fleet/config.h"

namespace ramiel::serve::fleet {

/// One immutable registered artifact. The compiled graph/hyperclustering/
/// mem-plan stay valid for as long as any shared_ptr to the entry lives.
struct ModelEntry {
  ModelConfig config;
  CompiledModel compiled;
  /// Resolved runtime (never kAuto): steal when cluster_cost_cv exceeds
  /// the auto threshold, else static. A shared pool registers its tenants
  /// as static, the only placement it runs (fleet_server.h explains why).
  ExecutorKind executor = ExecutorKind::kStatic;
  /// 1 for the first artifact under a name, bumped by each hot swap.
  int version = 1;
};

struct RegistryOptions {
  /// kAuto threshold on CompiledModel::cluster_cost_cv
  /// (deployment override in ramiel_serve: RAMIEL_AUTO_STEAL_CV).
  double auto_steal_cv = 0.35;
  /// Compute static memory plans for the loaded artifacts.
  bool mem_plan = true;
};

class ModelRegistry {
 public:
  /// Maps a model spec string to a graph. The default loader is the zoo
  /// (models::build); tests inject synthetic builders.
  using Loader = std::function<Graph(const std::string&)>;

  explicit ModelRegistry(RegistryOptions options = {}, Loader loader = {});

  /// Validates the config, compiles config.model (or config.name when
  /// empty) with its compile options, resolves kAuto, sets the
  /// ramiel_serve_executor_steal{model} gauge, and publishes the entry
  /// under config.name. An existing name is hot-swapped: the new entry gets
  /// version old+1 and subsequent lookups see it, while handles to the old
  /// version stay alive until released. Compilation runs outside the
  /// registry lock. Throws on unknown specs or invalid configs.
  std::shared_ptr<const ModelEntry> add(const ModelConfig& config);

  /// Detaches `name` from the table. Returns false when absent. Live
  /// handles keep the entry's storage valid.
  bool remove(const std::string& name);

  /// Current entry for `name`, or nullptr.
  std::shared_ptr<const ModelEntry> lookup(const std::string& name) const;

  /// Version of the current entry for `name` (0 when absent).
  int version(const std::string& name) const;

  /// Registered names, insertion-ordered.
  std::vector<std::string> names() const;

  int size() const;

 private:
  RegistryOptions options_;
  Loader loader_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ModelEntry>> entries_;
  std::vector<std::string> order_;  // insertion order for names()
};

}  // namespace ramiel::serve::fleet

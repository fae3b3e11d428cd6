#include "serve/fleet/registry.h"

#include <algorithm>
#include <utility>

#include "models/zoo.h"
#include "obs/metrics.h"

namespace ramiel::serve::fleet {

ModelRegistry::ModelRegistry(RegistryOptions options, Loader loader)
    : options_(options), loader_(std::move(loader)) {
  if (!loader_) {
    loader_ = [](const std::string& spec) { return models::build(spec); };
  }
}

std::shared_ptr<const ModelEntry> ModelRegistry::add(
    const ModelConfig& config) {
  config.validate();

  // Compile outside the lock: a hot add must not stall lookups (the
  // dispatcher resolves handles on every batch).
  const std::string spec = config.model.empty() ? config.name : config.model;
  PipelineOptions pipeline;
  pipeline.batch = config.batch;
  pipeline.hyper_mode = config.hyper;
  pipeline.constant_folding = config.fold;
  pipeline.cloning = config.clone;
  pipeline.dtype = config.dtype;
  if (!config.calib.empty()) {
    pipeline.calibration = load_calibration(config.calib);
  }
  pipeline.generate_code = false;
  pipeline.mem_planning = options_.mem_plan;

  auto entry = std::make_shared<ModelEntry>();
  entry->config = config;
  entry->compiled = compile_model(loader_(spec), pipeline);
  entry->executor = config.executor;
  if (entry->executor == ExecutorKind::kAuto) {
    entry->executor = entry->compiled.cluster_cost_cv > options_.auto_steal_cv
                          ? ExecutorKind::kSteal
                          : ExecutorKind::kStatic;
  }
  // Which runtime the model resolved to (0 = static, 1 = steal): lets a
  // dashboard see how often the auto policy flips to stealing.
  obs::registry()
      .gauge("ramiel_serve_executor_steal",
             "1 when this model runs the work-stealing executor",
             {{"model", config.name}})
      ->set(entry->executor == ExecutorKind::kSteal ? 1.0 : 0.0);

  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(config.name);
  if (it != entries_.end()) {
    entry->version = it->second->version + 1;  // hot swap
    it->second = entry;
  } else {
    entries_.emplace(config.name, entry);
    order_.push_back(config.name);
  }
  return entry;
}

bool ModelRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (entries_.erase(name) == 0) return false;
  order_.erase(std::remove(order_.begin(), order_.end(), name), order_.end());
  return true;
}

std::shared_ptr<const ModelEntry> ModelRegistry::lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

int ModelRegistry::version(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second->version;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  return order_;
}

int ModelRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(entries_.size());
}

}  // namespace ramiel::serve::fleet

// Fleet configuration: which models one multi-tenant server hosts, how
// each is compiled, and how much of the machine each tenant is entitled to.
// Every tenant's requests take the one serving path: admission -> per-tenant
// batch fill -> executor; a single-model server (tools/ramiel_serve) is a
// one-tenant fleet.
//
// The JSON shape (tools/ramiel_fleet --config):
//
//   {
//     "pool": "shared",            // or "partitioned"
//     "aging_ms": 50.0,            // fairness aging threshold (admission.h)
//     "models": [
//       {"name": "squeezenet", "batch": 4,
//        "slo_class": "interactive", "executor": "auto",
//        "quota_rps": 200.0, "burst": 50.0, "weight": 2.0,
//        "queue_depth": 64, "pipeline_stages": 1,
//        "fold": false, "clone": false, "hyper": "plain",
//        "dtype": "f32", "calib": ""},
//       ...
//     ]
//   }
//
// Parsing is strict RFC 8259 (obs/json_read.h) with typed validation:
// unknown keys (at the top level and in models[] entries), unknown
// pool/executor/slo_class/hyper/dtype strings, non-integral or
// out-of-range integers, non-positive batches and duplicate tenant names
// are errors, not defaults. to_json() round-trips losslessly
// (test-enforced), so a fleet's running config can be exported and
// re-loaded.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ramiel/pipeline.h"
#include "rt/executor_kind.h"
#include "support/dtype.h"

namespace ramiel::serve::fleet {

/// Per-tenant model entry: artifact and its compile options, batch size,
/// and machine share. There is no batching delay to set: a batch is what
/// the tenant already has queued (fleet_server.h).
struct ModelConfig {
  /// Tenant name — the submit() key and the {model=...} metric label.
  std::string name;
  /// Zoo model spec to build ("" = same as name).
  std::string model;
  /// Serving batch size (the hyperclustering batch).
  int batch = 4;
  /// SLO class: "interactive" | "standard" | "batch". Interactive tenants
  /// age twice as fast toward the fairness boost; batch tenants never age.
  std::string slo_class = "standard";
  /// Runtime choice; kAuto resolves per model via cluster_cost_cv in
  /// ModelRegistry::add (shared pools force the static runtime — the whole
  /// point is one set of threads — and so does pipeline_stages > 1, whose
  /// stages run pinned, one worker each).
  ExecutorKind executor = ExecutorKind::kAuto;
  /// Token-bucket refill rate, requests/second. <= 0 = unlimited.
  double quota_rps = 0.0;
  /// Token-bucket depth. <= 0 defaults to max(1, quota_rps).
  double burst = 0.0;
  /// Weighted-fair share of dequeue bandwidth (relative to other tenants).
  double weight = 1.0;
  /// Bounded per-tenant queue depth (reject-on-full beyond it).
  int queue_depth = 64;
  /// > 1 splits the clustered program into this many cost-balanced stages
  /// (fleet/pipeline.h) run on the tenant's own executor with two batches
  /// in flight, so consecutive batches overlap across stages.
  int pipeline_stages = 1;

  // Compile options (PipelineOptions). The defaults compile the model
  // as-is: no folding, no cloning, plain hyperclustering, f32.
  /// Constant propagation + DCE before clustering (§III-C).
  bool fold = false;
  /// Restricted task cloning before clustering (§III-D).
  bool clone = false;
  /// Hypercluster interleave for batch > 1 (JSON "plain" | "switched").
  HyperMode hyper = HyperMode::kPlain;
  /// Storage dtype (JSON "f32" | "f16" | "bf16" | "i8"); non-f32 runs the
  /// quantize_weights stage.
  DType dtype = DType::kF32;
  /// Calibration file written by ramiel_calibrate, consulted by the i8
  /// lowering ("" = none). Loaded by the registry at compile time.
  std::string calib;

  /// Throws Error naming the tenant and the first invalid field: an empty
  /// name, batch / queue_depth / pipeline_stages below 1, non-finite
  /// quota or burst, weight <= 0, or
  /// an unknown slo_class. parse_fleet_config and ModelRegistry::add both
  /// call it, so configs built in code fail the same way as JSON ones.
  void validate() const;
};

struct FleetConfig {
  std::vector<ModelConfig> models;
  /// "shared" = one multi-program executor for every model;
  /// "partitioned" = one executor per model (isolation baseline).
  std::string pool = "shared";
  /// Queueing delay after which a waiting head request outranks the
  /// weighted-fair order (starvation bound; see admission.h).
  double aging_ms = 50.0;
};

/// Parses a fleet config document. Returns false and fills *error (when
/// non-null) on malformed JSON or invalid values; *out is unspecified then.
bool parse_fleet_config(std::string_view json, FleetConfig* out,
                        std::string* error = nullptr);

/// Serializes a config as one JSON object; parse_fleet_config(to_json(c))
/// reproduces c exactly.
std::string to_json(const FleetConfig& config);

}  // namespace ramiel::serve::fleet

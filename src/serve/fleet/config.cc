#include "serve/fleet/config.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <unordered_set>

#include "obs/json.h"
#include "obs/json_read.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel::serve::fleet {
namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

const char* hyper_name(HyperMode mode) {
  return mode == HyperMode::kSwitched ? "switched" : "plain";
}

bool valid_slo_class(const std::string& s) {
  return s == "interactive" || s == "standard" || s == "batch";
}

/// Reads an optional finite number member; false (with *error) on a
/// present-but-not-a-number member.
bool read_number(const obs::JsonValue& obj, const char* key, double* out,
                 std::string* error) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is(obs::JsonValue::Kind::kNumber) || !std::isfinite(v->number)) {
    return fail(error, str_cat("member '", key, "' must be a finite number"));
  }
  *out = v->number;
  return true;
}

/// Reads an optional integer member: a number with no fractional part that
/// fits an int. 2.7, 3e9 and 1e300 are errors, not truncations.
bool read_int(const obs::JsonValue& obj, const char* key, int* out,
              std::string* error) {
  double v = 0.0;
  if (obj.find(key) == nullptr) return true;
  if (!read_number(obj, key, &v, error)) return false;
  if (v != std::trunc(v) ||
      v < static_cast<double>(std::numeric_limits<int>::min()) ||
      v > static_cast<double>(std::numeric_limits<int>::max())) {
    return fail(error, str_cat("member '", key, "' must be an integer (got ",
                               obs::json_number(v), ")"));
  }
  *out = static_cast<int>(v);
  return true;
}

bool read_bool(const obs::JsonValue& obj, const char* key, bool* out,
               std::string* error) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is(obs::JsonValue::Kind::kBool)) {
    return fail(error, str_cat("member '", key, "' must be true or false"));
  }
  *out = v->boolean;
  return true;
}

bool read_string(const obs::JsonValue& obj, const char* key, std::string* out,
                 std::string* error) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is(obs::JsonValue::Kind::kString)) {
    return fail(error, str_cat("member '", key, "' must be a string"));
  }
  *out = v->str;
  return true;
}

/// The first member of `obj` whose key is not in `known`, named in *error;
/// true when there is none. A typo or a retired key fails loudly instead
/// of leaving its field at the default.
bool known_keys(const obs::JsonValue& obj,
                std::initializer_list<std::string_view> known,
                const std::string& where, std::string* error) {
  for (const auto& [key, value] : obj.object) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return fail(error, str_cat(where, "unknown key '", key, "'"));
    }
  }
  return true;
}

bool parse_model(const obs::JsonValue& entry, ModelConfig* out,
                 std::string* error) {
  if (!entry.is(obs::JsonValue::Kind::kObject)) {
    return fail(error, "each models[] entry must be an object");
  }
  if (!read_string(entry, "name", &out->name, error)) return false;
  if (out->name.empty()) {
    return fail(error, "models[] entry needs a non-empty 'name'");
  }
  const std::string where = str_cat("model '", out->name, "': ");
  if (!known_keys(entry,
                  {"name", "model", "batch", "slo_class", "executor",
                   "quota_rps", "burst", "weight", "queue_depth",
                   "pipeline_stages", "fold", "clone", "hyper", "dtype",
                   "calib"},
                  where, error)) {
    return false;
  }
  std::string executor = to_string(out->executor);
  std::string hyper = hyper_name(out->hyper);
  std::string dtype = dtype_name(out->dtype);
  if (!read_string(entry, "model", &out->model, error) ||
      !read_int(entry, "batch", &out->batch, error) ||
      !read_string(entry, "slo_class", &out->slo_class, error) ||
      !read_string(entry, "executor", &executor, error) ||
      !read_number(entry, "quota_rps", &out->quota_rps, error) ||
      !read_number(entry, "burst", &out->burst, error) ||
      !read_number(entry, "weight", &out->weight, error) ||
      !read_int(entry, "queue_depth", &out->queue_depth, error) ||
      !read_int(entry, "pipeline_stages", &out->pipeline_stages, error) ||
      !read_bool(entry, "fold", &out->fold, error) ||
      !read_bool(entry, "clone", &out->clone, error) ||
      !read_string(entry, "hyper", &hyper, error) ||
      !read_string(entry, "dtype", &dtype, error) ||
      !read_string(entry, "calib", &out->calib, error)) {
    if (error != nullptr) *error = where + *error;
    return false;
  }
  if (!parse_executor_kind(executor, &out->executor, /*allow_auto=*/true)) {
    return fail(error, str_cat(where, "executor '", executor,
                               "' (want static|steal|auto)"));
  }
  if (hyper != "plain" && hyper != "switched") {
    return fail(error,
                str_cat(where, "hyper '", hyper, "' (want plain|switched)"));
  }
  out->hyper = hyper == "switched" ? HyperMode::kSwitched : HyperMode::kPlain;
  const auto dt = parse_dtype(dtype);
  if (!dt) {
    return fail(error,
                str_cat(where, "dtype '", dtype, "' (want f32|f16|bf16|i8)"));
  }
  out->dtype = *dt;
  try {
    out->validate();
  } catch (const Error& e) {
    return fail(error, e.what());
  }
  return true;
}

}  // namespace

void ModelConfig::validate() const {
  const auto bad = [&](const std::string& what) {
    throw Error(str_cat("model '", name, "': ", what));
  };
  if (name.empty()) throw Error("model config needs a non-empty name");
  if (batch < 1) bad("batch must be >= 1");
  if (queue_depth < 1) bad("queue_depth must be >= 1");
  if (pipeline_stages < 1) bad("pipeline_stages must be >= 1");
  if (!std::isfinite(quota_rps)) bad("quota_rps must be finite");
  if (!std::isfinite(burst)) bad("burst must be finite");
  if (!std::isfinite(weight) || weight <= 0.0) bad("weight must be > 0");
  if (!valid_slo_class(slo_class)) {
    bad(str_cat("slo_class '", slo_class,
                "' (want interactive|standard|batch)"));
  }
}

bool parse_fleet_config(std::string_view json, FleetConfig* out,
                        std::string* error) {
  obs::JsonValue doc;
  std::string parse_error;
  if (!obs::json_parse(json, &doc, &parse_error)) {
    return fail(error, str_cat("fleet config: ", parse_error));
  }
  if (!doc.is(obs::JsonValue::Kind::kObject)) {
    return fail(error, "fleet config must be a JSON object");
  }
  *out = FleetConfig{};
  if (!known_keys(doc, {"pool", "aging_ms", "models"}, "fleet config: ",
                  error) ||
      !read_string(doc, "pool", &out->pool, error)) {
    return false;
  }
  if (out->pool != "shared" && out->pool != "partitioned") {
    return fail(error, str_cat("pool '", out->pool,
                               "' (want shared|partitioned)"));
  }
  if (!read_number(doc, "aging_ms", &out->aging_ms, error)) return false;
  if (out->aging_ms <= 0.0) {
    return fail(error, "aging_ms must be > 0");
  }

  const obs::JsonValue* models = doc.find("models");
  if (models == nullptr || !models->is(obs::JsonValue::Kind::kArray) ||
      models->array.empty()) {
    return fail(error, "fleet config needs a non-empty 'models' array");
  }
  std::unordered_set<std::string> names;
  for (const obs::JsonValue& entry : models->array) {
    ModelConfig mc;
    if (!parse_model(entry, &mc, error)) return false;
    if (!names.insert(mc.name).second) {
      return fail(error, str_cat("duplicate model name '", mc.name, "'"));
    }
    out->models.push_back(std::move(mc));
  }
  return true;
}

std::string to_json(const FleetConfig& config) {
  using obs::json_number;
  using obs::json_quote;
  std::string out = "{";
  out += "\"pool\":" + json_quote(config.pool);
  out += ",\"aging_ms\":" + json_number(config.aging_ms);
  out += ",\"models\":[";
  for (std::size_t i = 0; i < config.models.size(); ++i) {
    const ModelConfig& m = config.models[i];
    if (i > 0) out += ",";
    out += "{\"name\":" + json_quote(m.name);
    out += ",\"model\":" + json_quote(m.model);
    out += ",\"batch\":" + std::to_string(m.batch);
    out += ",\"slo_class\":" + json_quote(m.slo_class);
    out += ",\"executor\":" + json_quote(to_string(m.executor));
    out += ",\"quota_rps\":" + json_number(m.quota_rps);
    out += ",\"burst\":" + json_number(m.burst);
    out += ",\"weight\":" + json_number(m.weight);
    out += ",\"queue_depth\":" + std::to_string(m.queue_depth);
    out += ",\"pipeline_stages\":" + std::to_string(m.pipeline_stages);
    out += std::string(",\"fold\":") + (m.fold ? "true" : "false");
    out += std::string(",\"clone\":") + (m.clone ? "true" : "false");
    out += ",\"hyper\":" + json_quote(hyper_name(m.hyper));
    out += ",\"dtype\":" + json_quote(dtype_name(m.dtype));
    out += ",\"calib\":" + json_quote(m.calib);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace ramiel::serve::fleet

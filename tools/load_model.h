// Model-spec resolution shared by the command-line tools: a zoo model name,
// or the path of an onnx-lite text (.rml) or binary (.rmb) model file.
#pragma once

#include <string>

#include "graph/graph.h"
#include "models/zoo.h"
#include "onnx/model_io.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {

/// Builds zoo model `spec`, or loads the model file it names. A spec that
/// is neither (no zoo match and no '.') throws Error listing the zoo.
inline Graph load_any(const std::string& spec) {
  for (const std::string& name : models::model_names()) {
    if (name == spec) return models::build(name);
  }
  if (spec.find('.') == std::string::npos) {
    throw Error(str_cat("unknown model '", spec, "'; available: ",
                        join(models::model_names(), ", "),
                        " (or pass a .rml/.rmb file)"));
  }
  return load_model_file(spec);
}

}  // namespace ramiel

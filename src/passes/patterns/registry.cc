#include "passes/patterns/registry.h"

#include "passes/patterns/rules.h"
#include "support/check.h"
#include "support/string_util.h"

namespace ramiel::patterns {

void PatternRegistry::add(std::unique_ptr<Pattern> pattern) {
  RAMIEL_CHECK(pattern != nullptr, "cannot register null pattern");
  RAMIEL_CHECK(!pattern->name().empty(), "pattern name must be non-empty");
  RAMIEL_CHECK(find(pattern->name()) == nullptr,
               str_cat("duplicate pattern name '", pattern->name(), "'"));
  patterns_.push_back(std::move(pattern));
}

Pattern* PatternRegistry::find(std::string_view name) const {
  for (const auto& p : patterns_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::vector<std::string> PatternRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(patterns_.size());
  for (const auto& p : patterns_) out.emplace_back(p->name());
  return out;
}

PatternRegistry& pattern_registry() {
  static PatternRegistry* registry = [] {
    auto* r = new PatternRegistry();
    r->add(make_constexpr_shape_ops());
    r->add(make_drop_identity());
    r->add(make_fold_batch_norms());
    r->add(make_fold_scale_mul());
    r->add(make_absorb_bias_add());
    r->add(make_fuse_activation());
    r->add(make_quantize_weights());
    return r;
  }();
  return *registry;
}

}  // namespace ramiel::patterns

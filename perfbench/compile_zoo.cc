// compile_zoo: closed loop, one thread. One operation builds and compiles
// all eight zoo models, in an order drawn from the seed, with every compiler
// stage on. Runtimes, fleet and kernels (beyond constant folding) are
// bypassed, so only the compiler half moves this workload.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "models/zoo.h"
#include "support/rng.h"

namespace perfbench {
namespace {

// Goodput limit on one zoo compile, fixed above the p99 measured on the
// commit that introduced the benchmark.
constexpr double kLimitMs = 1000.0;

struct ZooCompile {
  double wall_ms = 0.0;
  double build_ms = 0.0;
  double compile_ms = 0.0;
  std::vector<double> model_ms;               // compile_model time, zoo order
  std::vector<ramiel::CompiledModel> models;  // zoo order
};

ZooCompile compile_zoo_once(const std::vector<std::string>& names,
                            const std::vector<int>& order, Tracer& tr,
                            std::int64_t op) {
  ZooCompile z;
  z.model_ms.assign(names.size(), 0.0);
  z.models.resize(names.size());
  Scope span(tr, "zoo_compile", op);
  ramiel::Stopwatch wall;
  for (int m : order) {
    const std::string& name = names[static_cast<std::size_t>(m)];
    ramiel::Stopwatch sw;
    ramiel::Graph g;
    {
      Scope s(tr, "models.build:" + name, op);
      g = ramiel::models::build(name);
    }
    z.build_ms += sw.millis();
    sw.reset();
    {
      Scope s(tr, "ramiel.compile:" + name, op);
      z.models[static_cast<std::size_t>(m)] =
          ramiel::compile_model(std::move(g), zoo_compile_options());
      tr.add_passes(z.models[static_cast<std::size_t>(m)], s.id());
    }
    z.model_ms[static_cast<std::size_t>(m)] = sw.millis();
    z.compile_ms += z.model_ms[static_cast<std::size_t>(m)];
  }
  z.wall_ms = wall.millis();
  return z;
}

/// Compares every model's fingerprint with the reference; records the
/// first mismatch in *why.
bool matches(const ZooCompile& z, const std::vector<Fingerprint>& ref,
             const std::vector<std::string>& names, std::string* why) {
  for (std::size_t m = 0; m < ref.size(); ++m) {
    if (!(fingerprint(z.models[m]) == ref[m])) {
      *why = names[m] + ": compile does not reproduce the first fingerprint";
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_compile_zoo(const Args& args) {
  Result result;
  Tracer tr(args.trace);
  const std::vector<std::string> names = ramiel::models::model_names();
  std::vector<int> order(names.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  ramiel::Rng rng(args.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  // The first compile fixes the fingerprints every later one reproduces.
  std::vector<Fingerprint> ref;
  for (const auto& cm : compile_zoo_once(names, order, tr, -1).models) {
    ref.push_back(fingerprint(cm));
  }

  // Closed loop. A traced run alternates untraced and traced operations, so
  // drift in the host's speed lands on both alike; latencies go to
  // lat[traced].
  Samples layers;
  std::vector<std::vector<double>> model_ms(names.size());
  double good = 0.0;
  double verified = 0.0;
  double window_s = 0.0;
  std::vector<double> lat[2];
  std::int64_t op = 0;
  auto run_for = [&](double seconds, bool timed) {
    ramiel::Stopwatch sw;
    for (; sw.seconds() < seconds; ++op) {
      const bool traced = timed && args.trace && op % 2 == 1;
      tr.set_enabled(traced);
      try {
        ZooCompile z = compile_zoo_once(names, order, tr, op);
        std::string why;
        if (!result.tally.record(matches(z, ref, names, &why), why) ||
            !timed) {
          continue;
        }
        lat[traced].push_back(z.wall_ms);
        verified += static_cast<double>(names.size());
        if (z.wall_ms <= kLimitMs) good += static_cast<double>(names.size());
        if (traced) {
          std::vector<const ramiel::CompiledModel*> ptrs;
          for (const auto& cm : z.models) ptrs.push_back(&cm);
          add_compile_layers(ptrs, z.build_ms, z.compile_ms, &layers);
          for (std::size_t m = 0; m < names.size(); ++m) {
            model_ms[m].push_back(z.model_ms[m]);
          }
        }
      } catch (const std::exception& e) {
        result.tally.fail(std::string("compile threw: ") + e.what());
      }
    }
    if (timed) window_s += sw.seconds();
  };

  run_for(kWarmupSeconds, false);
  // A set-up is one zoo compile with its check. The operations do not use
  // its result, so it is dropped (untimed) before they run.
  ZooCompile built;
  bool setup_ok = true;
  std::string setup_error;
  const std::vector<double> setups = sliced_window(
      kSetupReps,
      [&] {
        tr.set_enabled(args.trace);
        Scope s(tr, "setup");
        built = compile_zoo_once(names, order, tr, -1);
        return matches(built, ref, names, &setup_error);
      },
      [] {},
      [&](int) {
        built = ZooCompile{};
        run_for(args.seconds / kSetupReps, true);
      },
      &setup_ok);
  if (!setup_ok) result.tally.fail("set-up: " + setup_error);

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setups_s = setups;
    e2e.latencies_ms = lat[0];
    e2e.window_s = window_s;
    e2e.good_units = good;
    e2e.verified_units = verified;
    put_end_to_end(e2e, &result);
    return result;
  }

  layers.put(&result);
  for (std::size_t m = 0; m < names.size(); ++m) {
    result.put("ramiel.compile_" + names[m] + "_ms", median(model_ms[m]));
  }
  result.put("latency.p90_ms", percentile(lat[0], 0.90));
  result.put("trace.overhead_pct", overhead_pct(lat[0], lat[1]));
  tr.write(std::string(kTraceDir) + "/compile_zoo-" +
               std::to_string(args.seed) + ".json",
           args, {});
  return result;
}

}  // namespace perfbench

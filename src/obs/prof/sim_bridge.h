// Bridges the discrete-event simulator into the profiler: a SimResult's
// virtual-time TaskEvents become a Profile the critical-path analyzer and
// what-if replay consume unchanged. This is how the what-if estimator is
// cross-checked deterministically on any host, whatever its core count —
// both the analyzer's prediction and the reference re-simulation live in
// the same virtual cost world (see bench/profiler_whatif.cc and
// tests/prof_test.cc).
#pragma once

#include "rt/profiler.h"
#include "sim/simulator.h"

namespace ramiel::prof {

/// Packages a traced SimResult (SimOptions.trace = true) as a Profile.
/// Event times are already nanoseconds of virtual time; the window is
/// [0, makespan].
Profile profile_from_sim(const SimResult& sim);

}  // namespace ramiel::prof

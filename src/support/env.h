// Environment-variable helpers for benchmark and ops knobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/dtype.h"

namespace ramiel {

/// Reads an integer environment variable; returns `fallback` when unset or
/// unparseable.
int env_int(const char* name, int fallback);

/// Reads a float environment variable; returns `fallback` when unset or
/// unparseable.
double env_double(const char* name, double fallback);

/// Reads a string environment variable; returns `fallback` when unset.
std::string env_str(const char* name, const std::string& fallback);

// Ops knobs: runtime configuration that must be tunable without recompiling
// callers (a serving host sets these per deployment). Non-positive or
// unparseable values fall back.

/// RAMIEL_INTRA_OP_THREADS — kernel-level threads per cluster worker.
int env_intra_op_threads(int fallback);

/// RAMIEL_SERVE_QUEUE_DEPTH — admission-control bound on the serving
/// request queue.
int env_serve_queue_depth(int fallback);

/// RAMIEL_METRICS_INTERVAL_MS — period of the serving metrics emitter's
/// snapshots (JSONL append + Prometheus textfile rewrite).
int env_metrics_interval_ms(int fallback);

/// RAMIEL_MEM_PLAN — whether executors back intermediates with planned
/// arenas ("arena"/"on"/"1") or plain heap allocation ("off"/"0"/"false").
/// Unset or unrecognized values return `fallback`.
bool env_mem_plan_default(bool fallback);

/// RAMIEL_KERNEL — kernel backend selector. Returns the raw value ("scalar"
/// or "vector" are meaningful to kernels/dispatch.cc); `fallback` when
/// unset. Kept a string so support/ stays independent of the kernels'
/// Path enum.
std::string env_kernel_path(const std::string& fallback);

/// RAMIEL_PARALLEL_THRESHOLD — minimum estimated per-op cost (numel x
/// cost-per-item) before dispatch_parallel_for fans out to the intra-op
/// pool. Zero is valid (always parallelize); negative or unparseable
/// values fall back.
std::int64_t env_parallel_threshold(std::int64_t fallback);

/// RAMIEL_DTYPE — default storage dtype for compiled models ("f32", "f16",
/// "bf16", "i8"); the `--dtype` CLI flag overrides it. Unset or unparseable
/// values fall back.
DType env_dtype(DType fallback);

/// RAMIEL_AUTO_STEAL_CV — cluster-cost coefficient-of-variation threshold
/// above which `--executor auto` picks the work-stealing runtime. Negative
/// or unparseable values fall back.
double env_auto_steal_cv(double fallback);

/// Parses a comma-separated list of strictly increasing positive doubles
/// ("0.5,1,5,25"); whitespace around items is allowed. Returns false (and
/// leaves `out` untouched) on empty input, parse errors, non-positive
/// values or non-increasing order.
bool parse_bucket_list(const std::string& text, std::vector<double>* out);

/// RAMIEL_HIST_BUCKETS — histogram upper-bound overrides for the metrics
/// registry's latency histograms, as a parse_bucket_list() string. Unset or
/// invalid values return `fallback`.
std::vector<double> env_hist_buckets(std::vector<double> fallback);

}  // namespace ramiel

// Shared pieces of the end-to-end benchmark: argument parsing, the timing
// statistics every workload reports, output checks with failure accounting,
// the span recorder behind the traced runs, and the result line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "support/stopwatch.h"

namespace perfbench {

using ramiel::TensorMap;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Complete set-ups timed per run, spread through the timed window.
inline constexpr int kSetupReps = 5;
/// Untimed (but verified) operations before the timed window: the first
/// seconds of a process run measurably slower.
inline constexpr double kWarmupSeconds = 3.0;

/// Where traced runs write their spans, relative to the working directory.
inline constexpr const char* kTraceDir = ".bench_out";

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
/// Returns false and fills *error on anything malformed.
bool parse_args(int argc, char** argv, Args* out, std::string* error);

// -- statistics -------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (q in (0, 1]). Empty input yields 0.
double percentile(std::vector<double> samples, double q);

/// Median (mean of the middle two for an even count). Empty input yields 0.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// Tracing cost: how much the traced operations' median latency exceeds the
/// untraced ones', in percent of the untraced median.
double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced);

/// Open-loop latency of one request, charged from when it was due: the time
/// the generator ran late sending it plus the server's submit-to-completion
/// time. `due_ns`/`send_ns` share one clock.
double due_latency_ms(std::int64_t due_ns, std::int64_t send_ns,
                      double server_latency_ms);

/// The timed window with its set-ups spread through it. The window is cut
/// into `reps` slices. Each slice starts with `teardown` (untimed: destroys
/// what the warm-up or the previous set-up left standing) and a timed
/// `setup` (builds a fresh deployment and checks its first output), then
/// runs `slice(i)` on that deployment. Set-ups thus see the same host and
/// process state as the operations around them, after the warm-up.
/// Returns the set-up times in seconds; a `setup` returning false sets *ok
/// to false.
std::vector<double> sliced_window(int reps, const std::function<bool()>& setup,
                                  const std::function<void()>& teardown,
                                  const std::function<void(int)>& slice,
                                  bool* ok);

/// High-water resident set of this process in MiB (VmHWM), 0 if unknown.
double peak_rss_mb();

/// Resets VmHWM to the current resident set, so memory the benchmark used
/// to build its inputs and references is not charged to the program.
void reset_peak_rss();

// -- output checks ----------------------------------------------------------

/// Attempted/failed bookkeeping shared by every workload. A wrong output,
/// an exception, a refusal and a timeout each count as one failure.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_error;

  void fail(const std::string& why);
  /// Counts one attempted operation, failed unless `ok`; returns `ok`.
  bool record(bool ok, const std::string& why);
  bool all_ok() const { return failed == 0; }
};

/// Tolerance of the repository's executor tests (tests/executor_test.cc).
inline constexpr float kAtol = 1e-4f;
inline constexpr float kRtol = 1e-3f;

/// Every sample of `got` has the outputs of `ref`, within atol/rtol.
bool outputs_close(const std::vector<TensorMap>& ref,
                   const std::vector<TensorMap>& got, std::string* why);

/// Every sample of `got` is bit-identical to `ref`.
bool outputs_identical(const std::vector<TensorMap>& ref,
                       const std::vector<TensorMap>& got, std::string* why);

// -- compile configuration ---------------------------------------------------

/// compile_zoo's options: folding, cloning, every pattern rule, switched
/// hyperclustering at batch 4, memory planning and code generation.
ramiel::PipelineOptions zoo_compile_options();

/// Per-pass wall time of one compile, keyed by PassReport::pass.
double pass_ms(const ramiel::CompiledModel& cm, const std::string& pass);
double pass_sum_ms(const ramiel::CompiledModel& cm);

/// What identifies one compile's result; a timed compile that does not
/// reproduce the first compile's fingerprint is a failure.
struct Fingerprint {
  int nodes = 0;
  int clusters = 0;
  std::int64_t hyper_tasks = 0;
  std::int64_t code_bytes = 0;
  std::int64_t planned_peak_bytes = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint fingerprint(const ramiel::CompiledModel& cm);

struct Result;

/// Per-layer observations (one value per metric per observation); put()
/// reports the median of each metric.
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void put(Result* result) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Adds one observation of the models/passes/mem/codegen/ramiel metrics:
/// `compiled` are the models of one zoo compile or one set-up, `build_ms`
/// the time spent in models::build for them and `compile_ms` the time spent
/// in compile_model, both timed outside the calls.
void add_compile_layers(
    const std::vector<const ramiel::CompiledModel*>& compiled,
    double build_ms, double compile_ms, Samples* samples);

// -- tracing ----------------------------------------------------------------

/// In-memory span recorder for the traced runs. Spans are recorded around
/// calls into the program's layers from benchmark code only; they are kept
/// in memory and written out once, when the run ends. Not thread-safe: each
/// workload records from its one load thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;       // index into spans(), -1 for a root
    std::int64_t op = -1;  // operation / request id, -1 for set-up spans
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(const std::string& name, std::int64_t op = -1);
  void end(int span);

  /// Records an already-finished span (e.g. reconstructed from a program
  /// timestamp) under `parent`.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t op = -1);

  /// Nests each PassReport of `cm` under `parent` (same steady clock).
  void add_passes(const ramiel::CompiledModel& cm, int parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children, summed per name, in milliseconds.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;

  /// Writes {"workload","seed","spans","self_ms", plus `extra` members} to
  /// `path` (parent directories created). `extra` is a list of
  /// (key, raw JSON value) pairs: the program's own trace outputs.
  bool write(const std::string& path, const Args& args,
             const std::vector<std::pair<std::string, std::string>>& extra)
      const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t op = -1)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// -- result -----------------------------------------------------------------

struct Result {
  Tally tally;
  std::vector<std::pair<std::string, double>> metrics;  // name, value

  void put(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

/// The last line: {"correct","attempted","failed","metrics": {name: value}}.
/// perfbench/run.py adds the units from BENCHMARK.json.
std::string result_json(const Result& result);

/// Shortest decimal that round-trips the double (every measured digit).
std::string number(double v);

/// The end-to-end metrics an untraced run reports, computed from the
/// operation latencies and the verified units completed inside a window.
struct EndToEnd {
  std::vector<double> setups_s;      // every timed set-up; reported median
  std::vector<double> latencies_ms;  // one per attempted operation
  double good_units = 0.0;           // verified units within the limit
  double verified_units = 0.0;       // verified units, any latency
  double window_s = 0.0;
};
void put_end_to_end(const EndToEnd& e2e, Result* result);

/// Workload entry points (compile_zoo.cc, offline.cc, serve_fleet.cc).
Result run_compile_zoo(const Args& args);
Result run_offline_bert(const Args& args);
Result run_serve_fleet(const Args& args);

}  // namespace perfbench

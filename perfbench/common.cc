#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"

namespace perfbench {

bool parse_args(int argc, char** argv, Args* out, std::string* error) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (used != value.size() || !(a.seconds > 0.0) || a.seconds > 600.0) {
          throw std::invalid_argument(value);
        }
      } else if (key == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        a.trace = value == "1";
      } else {
        *error = "unknown argument " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  *out = a;
  return true;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double overhead_pct(const std::vector<double>& untraced,
                    const std::vector<double>& traced) {
  const double base = median(untraced);
  return base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

double due_latency_ms(std::int64_t due_ns, std::int64_t send_ns,
                      double server_latency_ms) {
  return static_cast<double>(send_ns - due_ns) / 1e6 + server_latency_ms;
}

std::vector<double> sliced_window(int reps, const std::function<bool()>& setup,
                                  const std::function<void()>& teardown,
                                  const std::function<void(int)>& slice,
                                  bool* ok) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    teardown();
    ramiel::Stopwatch sw;
    const bool good = setup();
    times.push_back(sw.seconds());
    if (!good) *ok = false;
    slice(i);
  }
  return times;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Tally::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (first_error.empty()) first_error = why;
}

bool Tally::record(bool ok, const std::string& why) {
  if (ok) {
    ++attempted;
  } else {
    fail(why);
  }
  return ok;
}

namespace {

bool same_keys(const TensorMap& ref, const TensorMap& got, std::size_t s,
               std::string* why) {
  if (ref.size() != got.size()) {
    *why = "sample " + std::to_string(s) + ": output count differs";
    return false;
  }
  for (const auto& [key, value] : ref) {
    auto it = got.find(key);
    if (it == got.end()) {
      *why = "sample " + std::to_string(s) + ": missing output " + key;
      return false;
    }
    if (it->second.shape().dims() != value.shape().dims()) {
      *why = "sample " + std::to_string(s) + ": shape of " + key + " differs";
      return false;
    }
  }
  return true;
}

}  // namespace

bool outputs_close(const std::vector<TensorMap>& ref,
                   const std::vector<TensorMap>& got, std::string* why) {
  if (ref.size() != got.size()) {
    *why = "sample count differs";
    return false;
  }
  for (std::size_t s = 0; s < ref.size(); ++s) {
    if (!same_keys(ref[s], got[s], s, why)) return false;
    for (const auto& [key, value] : ref[s]) {
      if (!ramiel::allclose(value, got[s].at(key), kAtol, kRtol)) {
        *why = "sample " + std::to_string(s) + ": " + key +
               " differs from the sequential reference";
        return false;
      }
    }
  }
  return true;
}

bool outputs_identical(const std::vector<TensorMap>& ref,
                       const std::vector<TensorMap>& got, std::string* why) {
  if (ref.size() != got.size()) {
    *why = "sample count differs";
    return false;
  }
  for (std::size_t s = 0; s < ref.size(); ++s) {
    if (!same_keys(ref[s], got[s], s, why)) return false;
    for (const auto& [key, value] : ref[s]) {
      const ramiel::Tensor& b = got[s].at(key);
      if (value.dtype() != b.dtype() ||
          std::memcmp(value.raw(), b.raw(),
                      static_cast<std::size_t>(value.byte_size())) != 0) {
        *why = "sample " + std::to_string(s) + ": " + key +
               " is not bit-identical to the first output";
        return false;
      }
    }
  }
  return true;
}

ramiel::PipelineOptions zoo_compile_options() {
  ramiel::PipelineOptions o;
  o.constant_folding = true;
  o.cloning = true;
  o.pattern_rewrites = true;
  o.batch = 4;
  o.hyper_mode = ramiel::HyperMode::kSwitched;
  o.mem_planning = true;
  o.generate_code = true;
  return o;
}

double pass_ms(const ramiel::CompiledModel& cm, const std::string& pass) {
  double ms = 0.0;
  for (const auto& r : cm.pass_reports) {
    if (r.pass == pass) ms += r.wall_ms;
  }
  return ms;
}

double pass_sum_ms(const ramiel::CompiledModel& cm) {
  double ms = 0.0;
  for (const auto& r : cm.pass_reports) ms += r.wall_ms;
  return ms;
}

Fingerprint fingerprint(const ramiel::CompiledModel& cm) {
  Fingerprint f;
  f.nodes = cm.graph.live_node_count();
  f.clusters = cm.clustering.size();
  for (const auto& tasks : cm.hyperclusters.workers) {
    f.hyper_tasks += static_cast<std::int64_t>(tasks.size());
  }
  f.code_bytes = static_cast<std::int64_t>(
      cm.code.parallel_source.size() + cm.code.sequential_source.size() +
      cm.code.hypercluster_source.size());
  f.planned_peak_bytes = cm.mem_plan.peak_bytes;
  return f;
}

namespace {

// PassReport::pass -> the per-layer metric its wall time is summed into.
constexpr std::pair<const char*, const char*> kPassMetrics[] = {
    {"constant_folding", "passes.constant_folding_ms"},
    {"pattern_rewrite", "passes.pattern_rewrite_ms"},
    {"cloning", "passes.cloning_ms"},
    {"shape_inference", "passes.shape_inference_ms"},
    {"linear_clustering", "passes.linear_clustering_ms"},
    {"cluster_merging", "passes.cluster_merging_ms"},
    {"hyperclustering", "passes.hyperclustering_ms"},
    {"mem_planning", "mem.planning_ms"},
    {"codegen", "codegen.ms"},
};
constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

void Samples::put(Result* result) const {
  for (const auto& [name, values] : values_) {
    result->put(name, median(values));
  }
}

void add_compile_layers(
    const std::vector<const ramiel::CompiledModel*>& compiled,
    double build_ms, double compile_ms, Samples* samples) {
  std::map<std::string, double> v;
  for (const auto& [pass, metric] : kPassMetrics) v[metric] = 0.0;
  double pass_total = 0.0;
  for (const ramiel::CompiledModel* cm : compiled) {
    const Fingerprint f = fingerprint(*cm);
    for (const auto& [pass, metric] : kPassMetrics) {
      v[metric] += pass_ms(*cm, pass);
    }
    pass_total += pass_sum_ms(*cm);
    v["passes.pattern_applied"] += cm->pattern_stats.total_applied;
    v["passes.pattern_rounds"] += cm->pattern_stats.rounds;
    v["passes.nodes_after"] += f.nodes;
    v["passes.clusters"] += f.clusters;
    v["codegen.bytes"] += static_cast<double>(f.code_bytes);
    v["mem.planned_peak_mb"] +=
        static_cast<double>(f.planned_peak_bytes) / kMiB;
    v["mem.naive_mb"] += static_cast<double>(cm->mem_plan.naive_bytes) / kMiB;
  }
  v["models.build_ms"] = build_ms;
  v["ramiel.compile_ms"] = compile_ms;
  v["ramiel.unattributed_ms"] = compile_ms - pass_total;
  for (const auto& [name, value] : v) samples->add(name, value);
}

int Tracer::begin(const std::string& name, std::int64_t op) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, ramiel::Stopwatch::now_ns(), 0, parent, op});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = ramiel::Stopwatch::now_ns();
  // Spans close innermost-first; tolerate a skipped close on an exception
  // path by unwinding to the closed span.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

int Tracer::add(const std::string& name, std::int64_t start_ns,
                std::int64_t end_ns, int parent, std::int64_t op) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::add_passes(const ramiel::CompiledModel& cm, int parent) {
  if (!enabled_ || parent < 0) return;
  const std::int64_t op = spans_[static_cast<std::size_t>(parent)].op;
  for (const auto& r : cm.pass_reports) {
    add("pass." + r.pass, r.start_ns, r.end_ns, parent, op);
  }
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_name() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const std::int64_t b = std::max(k.start_ns, s.start_ns);
      const std::int64_t e = std::min(k.end_ns, s.end_ns);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (cur_e < b) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const double self =
        static_cast<double>(std::max<std::int64_t>(0, s.end_ns - s.start_ns -
                                                          covered)) /
        1e6;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == s.name; });
    if (it == out.end()) {
      out.emplace_back(s.name, self);
    } else {
      it->second += self;
    }
  }
  return out;
}

bool Tracer::write(
    const std::string& path, const Args& args,
    const std::vector<std::pair<std::string, std::string>>& extra) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":" << ramiel::obs::json_quote(args.workload)
      << ",\"seed\":" << args.seed << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? "," : "") << "{\"id\":" << i
        << ",\"name\":" << ramiel::obs::json_quote(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  out << "],\"self_ms\":{";
  const auto self = self_ms_by_name();
  for (std::size_t i = 0; i < self.size(); ++i) {
    out << (i ? "," : "") << ramiel::obs::json_quote(self[i].first) << ":"
        << number(self[i].second);
  }
  out << "}";
  for (const auto& [key, json] : extra) {
    out << "," << ramiel::obs::json_quote(key) << ":" << json;
  }
  out << "}\n";
  return static_cast<bool>(out);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_json(const Result& result) {
  std::string s = "{\"correct\": ";
  s += result.tally.all_ok() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(result.tally.attempted);
  s += ", \"failed\": " + std::to_string(result.tally.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    s += (i ? ", " : "") + ramiel::obs::json_quote(name) + ": " + number(value);
  }
  s += "}}";
  return s;
}

void put_end_to_end(const EndToEnd& e2e, Result* result) {
  result->put("setup_s", median(e2e.setups_s));
  result->put("p50_ms", percentile(e2e.latencies_ms, 0.50));
  const double window = e2e.window_s > 0.0 ? e2e.window_s : 1.0;
  result->put("throughput", e2e.verified_units / window);
  result->put("goodput", e2e.good_units / window);
  result->put("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench

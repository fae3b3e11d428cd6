// Observability layer tests: JSON escaping, metrics registry semantics
// (bucket boundaries, concurrent increments, series identity), and — the
// part that keeps every exporter honest — strict JSON round-trip validation
// of each emitter in the tree: Timeline::to_chrome_json,
// Profile::to_chrome_trace, compile_report_json, Registry::to_json,
// ServerStats::to_json and the MetricsEmitter's JSONL output.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "rt/profiler.h"
#include "serve/metrics_emitter.h"
#include "serve/fleet/fleet_server.h"
#include "support/check.h"
#include "strict_json.h"
#include "test_util.h"

namespace ramiel {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;
using obs::Timeline;

// ------------------------------------------------------- strict parser --
// A deliberately unforgiving RFC 8259 validator: no trailing commas, no
// unescaped control characters, no bare NaN/Infinity, full input consumed.
// Exporter bugs that Chrome's lenient loader would paper over fail here.

// The validator itself lives in strict_json.h (shared with mem_test.cc).
using testutil::StrictJson;
using testutil::strictly_valid;

TEST(StrictJson, ValidatorSelfTest) {
  EXPECT_TRUE(StrictJson::valid(R"({"a":[1,2.5,-3e4],"b":"x\n\"y\\"})"));
  EXPECT_TRUE(StrictJson::valid("[true,false,null]\n"));
  EXPECT_TRUE(StrictJson::valid(R"("é")"));
  EXPECT_FALSE(StrictJson::valid("{\"a\":1,}"));     // trailing comma
  EXPECT_FALSE(StrictJson::valid("{\"a\":01}"));     // leading zero
  EXPECT_FALSE(StrictJson::valid("{\"a\":NaN}"));    // bare NaN
  EXPECT_FALSE(StrictJson::valid("\"a\nb\""));       // raw control char
  EXPECT_FALSE(StrictJson::valid("\"a\\qb\""));      // unknown escape
  EXPECT_FALSE(StrictJson::valid("{\"a\":1} extra"));
  EXPECT_FALSE(StrictJson::valid("{\"a\":\"unterminated"));
}

// --------------------------------------------------------- json helpers --

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_TRUE(strictly_valid(obs::json_quote("q\"w\\e\nr\x02t")));
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(1.0 / 0.0), "null");
  EXPECT_EQ(obs::json_number(-1.0 / 0.0), "null");
  EXPECT_EQ(obs::json_number(2.5), "2.5");
}

// -------------------------------------------------------------- metrics --

TEST(Histogram, BucketBoundariesAreLeInclusive) {
  Histogram h({1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 2.1, 5.0, 5.1}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(s.counts[0], 2u);      // 0.5, 1.0  (v <= 1)
  EXPECT_EQ(s.counts[1], 2u);      // 1.5, 2.0  (v <= 2)
  EXPECT_EQ(s.counts[2], 2u);      // 2.1, 5.0  (v <= 5)
  EXPECT_EQ(s.counts[3], 1u);      // 5.1       (+Inf)
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 2.0 + 2.1 + 5.0 + 5.1);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(Counter, ConcurrentIncrementsLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, ConcurrentAddAccumulatesExactly) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  // Sums of 1.0 stay exact in a double far beyond 40k.
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Registry, SameNameAndLabelsIsSameSeries) {
  Registry reg;
  Counter* a = reg.counter("hits", "h", {{"k", "v"}, {"a", "b"}});
  Counter* b = reg.counter("hits", "h", {{"a", "b"}, {"k", "v"}});  // reordered
  EXPECT_EQ(a, b);
  Counter* other = reg.counter("hits", "h", {{"a", "b"}});
  EXPECT_NE(a, other);
}

TEST(Registry, TypeClashThrows) {
  Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), Error);
  EXPECT_THROW(reg.histogram("m"), Error);
}

TEST(Registry, PrometheusExposition) {
  Registry reg;
  reg.counter("req_total", "requests", {{"path", "he\"llo"}})->inc(3);
  reg.gauge("depth", "queue depth")->set(1.5);
  Histogram* h = reg.histogram("lat_ms", "latency", {1.0, 10.0});
  h->observe(0.5);
  h->observe(100.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{path=\"he\\\"llo\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 1.5"), std::string::npos);
  // Cumulative le buckets: 1 obs <= 1, still 1 <= 10, 2 at +Inf.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 2"), std::string::npos);
}

TEST(Registry, JsonExportIsStrictlyValid) {
  Registry reg;
  reg.counter("c_total", "with \"quotes\" in help", {{"x", "a\\b"}})->inc();
  reg.gauge("g")->set(2.25);
  reg.histogram("h_ms", "", {0.5, 5.0})->observe(1.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

// ---------------------------------------------------------------- trace --

TEST(Timeline, ChromeJsonIsStrictlyValidWithHostileNames) {
  Timeline tl;
  tl.process_name(obs::kRuntimePid, "run\"time");
  tl.thread_name(obs::kRuntimePid, 0, "worker \\0");
  tl.span("op\"x\\y", "cat\n", obs::kRuntimePid, 0, 1000, 2000,
          {Timeline::Arg{"note", std::string("a\"b")},
           Timeline::Arg{"n", 3}});
  tl.instant("mark", "m", obs::kRuntimePid, 0, 1500);
  tl.counter("depth", obs::kRuntimePid, 1200, 4.0);
  tl.flow("msg", "message", 7, obs::kRuntimePid, 0, 1100, obs::kRuntimePid,
          1, 1300);
  const std::string json = tl.to_chrome_json();
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // span + instant + counter + 2 flow halves + 2 metadata = 7 events.
  EXPECT_EQ(tl.size(), 7u);
}

TEST(Timeline, FlowEndNeverPrecedesStart) {
  Timeline tl;
  tl.flow("m", "c", 1, 0, 0, /*send_ns=*/5000, 0, 1, /*recv_ns=*/4000);
  const std::string json = tl.to_chrome_json();
  EXPECT_TRUE(strictly_valid(json));
  // Clamped: the 'f' half is emitted at the send timestamp (5 us), not 4.
  EXPECT_EQ(json.find("\"ts\":4"), std::string::npos);
}

TEST(Timeline, RingOverwritesOldestPastCapacity) {
  Timeline tl(/*capacity=*/4);
  tl.process_name(obs::kRuntimePid, "rt");  // metadata, never dropped
  for (int i = 0; i < 10; ++i) {
    tl.span("s" + std::to_string(i), "c", obs::kRuntimePid, 0, i * 100,
            i * 100 + 50);
  }
  EXPECT_EQ(tl.capacity(), 4u);
  EXPECT_EQ(tl.size(), 5u);  // 4 ring slots + 1 metadata
  EXPECT_EQ(tl.dropped(), 6u);

  const std::string json = tl.to_chrome_json();
  EXPECT_TRUE(strictly_valid(json));
  // The most recent window survives, the oldest spans are gone, and the
  // track metadata is intact.
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(json.find("\"s" + std::to_string(i) + "\""),
              std::string::npos);
  }
  EXPECT_EQ(json.find("\"s0\""), std::string::npos);
  EXPECT_EQ(json.find("\"s5\""), std::string::npos);
  EXPECT_NE(json.find("\"rt\""), std::string::npos);
  // Oldest-first order is preserved across the wrap point.
  EXPECT_LT(json.find("\"s6\""), json.find("\"s9\""));
}

TEST(Timeline, DropsFeedProcessWideCounter) {
  const std::string before = obs::registry().to_prometheus();
  Timeline tl(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    tl.span("s", "c", obs::kRuntimePid, 0, i, i + 1);
  }
  EXPECT_EQ(tl.dropped(), 3u);
  const std::string after = obs::registry().to_prometheus();
  EXPECT_NE(after.find("ramiel_trace_dropped_spans_total"),
            std::string::npos);
  EXPECT_NE(before, after);  // the counter moved by our 3 drops
}

TEST(Timeline, UnboundedBelowCapacityKeepsEverything) {
  Timeline tl;
  for (int i = 0; i < 100; ++i) {
    tl.span("s", "c", obs::kRuntimePid, 0, i, i + 1);
  }
  EXPECT_EQ(tl.size(), 100u);
  EXPECT_EQ(tl.dropped(), 0u);
}

TEST(Histogram, EnvOverridesLatencyBuckets) {
  ::unsetenv("RAMIEL_HIST_BUCKETS");
  const std::vector<double> defaults = Histogram::latency_ms_buckets();
  EXPECT_FALSE(defaults.empty());

  ::setenv("RAMIEL_HIST_BUCKETS", "0.5,7.5,75", 1);
  EXPECT_EQ(Histogram::latency_ms_buckets(),
            (std::vector<double>{0.5, 7.5, 75.0}));

  // A histogram registered while the override is live exposes its bounds.
  Registry reg;
  reg.histogram("tuned_ms", "", Histogram::latency_ms_buckets())
      ->observe(1.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("tuned_ms_bucket{le=\"7.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tuned_ms_bucket{le=\"75\"} 1"), std::string::npos);

  ::setenv("RAMIEL_HIST_BUCKETS", "not,numbers", 1);
  EXPECT_EQ(Histogram::latency_ms_buckets(), defaults);  // invalid ignored
  ::unsetenv("RAMIEL_HIST_BUCKETS");
  EXPECT_EQ(Histogram::latency_ms_buckets(), defaults);
}

TEST(Profile, ChromeTraceEscapesHostileNodeNames) {
  Graph g("esc");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId n = g.add_node(OpKind::kRelu, "re\"lu\\raw\npath", {in});
  g.mark_output(g.node(n).outputs[0]);
  infer_shapes(g);

  Profile p;
  p.wall_ms = 1.0;
  p.workers.resize(2);
  p.events.push_back(TaskEvent{n, 0, 0, 1000, 2000});
  p.messages.push_back(MessageEvent{g.node(n).outputs[0], 0, 0, 1, 1500,
                                    1800, 16});
  p.queue_depths.push_back(QueueDepthSample{1, 1600, 1});

  const std::string json = p.to_chrome_trace(g);
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("re\\\"lu\\\\raw\\npath"), std::string::npos);
}

// ------------------------------------------------------ compile reports --

PipelineOptions all_passes_options() {
  PipelineOptions opts;
  opts.constant_folding = true;
  opts.pattern_rewrites = true;
  opts.cloning = true;
  opts.batch = 2;
  return opts;
}

TEST(CompileReport, RecordsEveryPipelineStageInOrder) {
  CompiledModel cm =
      compile_model(testing::make_diamond_graph(), all_passes_options());
  std::vector<std::string> names;
  for (const PassReport& p : cm.pass_reports) names.push_back(p.pass);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "constant_folding", "pattern_rewrite", "cloning",
                       "shape_inference", "linear_clustering",
                       "cluster_merging", "hyperclustering", "mem_planning",
                       "codegen"}));
  for (const PassReport& p : cm.pass_reports) {
    EXPECT_GE(p.wall_ms, 0.0) << p.pass;
    EXPECT_GT(p.end_ns, 0) << p.pass;
    EXPECT_GE(p.end_ns, p.start_ns) << p.pass;
    EXPECT_GT(p.nodes_before, 0) << p.pass;
    EXPECT_GT(p.nodes_after, 0) << p.pass;
    EXPECT_GE(p.critical_path, 0) << p.pass;
  }
  const PassReport& lc = cm.pass_reports[4];
  EXPECT_EQ(lc.clusters, cm.clusters_before_merge);
  const PassReport& merge = cm.pass_reports[5];
  EXPECT_EQ(merge.clusters, cm.clustering.size());
}

TEST(CompileReport, JsonStrictlyValidForEveryZooModel) {
  // The acceptance bar: --report works for all bundled models, not just
  // the toy graphs.
  for (const std::string& name : models::model_names()) {
    CompiledModel cm = compile_model(models::build(name), PipelineOptions{});
    const std::string json = compile_report_json(cm);
    EXPECT_TRUE(strictly_valid(json)) << name;
    EXPECT_NE(json.find("\"model\":\"" + name + "\""), std::string::npos);
    EXPECT_FALSE(cm.pass_reports.empty()) << name;
  }
}

TEST(CompileReport, CompileTraceSharesTimelineWithRuntime) {
  PipelineOptions opts = all_passes_options();
  opts.generate_code = false;
  opts.batch = 1;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  auto inputs = testing::example_inputs(cm.graph, 1, 5);
  ParallelExecutor par(&cm.graph, cm.hyperclusters);
  const Profile profile = testing::traced_run(par, inputs);

  Timeline tl;
  add_compile_trace(cm, tl);
  profile.to_timeline(cm.graph, tl);
  const std::string json = tl.to_chrome_json();
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"linear_clustering\""), std::string::npos);
  EXPECT_FALSE(profile.events.empty());
  // Compile strictly precedes execution on the shared steady clock.
  EXPECT_LT(cm.pass_reports.front().start_ns, profile.events.front().start_ns);
}

// ------------------------------------------------- runtime instrumentation --

TEST(RuntimeTrace, MessageFlowAndByteAccounting) {
  PipelineOptions opts;
  opts.generate_code = false;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  ASSERT_GT(cm.clustering.size(), 1) << "need a multi-worker model";
  auto inputs = testing::example_inputs(cm.graph, 1, 7);
  ParallelExecutor par(&cm.graph, cm.hyperclusters);
  const Profile profile = testing::traced_run(par, inputs);

  ASSERT_FALSE(profile.messages.empty());
  std::int64_t send_bytes = 0;
  for (const MessageEvent& m : profile.messages) {
    EXPECT_GE(m.src_worker, 0);
    EXPECT_GE(m.dst_worker, 0);
    EXPECT_NE(m.src_worker, m.dst_worker);
    EXPECT_GT(m.bytes, 0);
    EXPECT_GT(m.send_ns, 0);
    if (m.recv_ns != 0) {
      EXPECT_GE(m.recv_ns, m.send_ns);
    }
    send_bytes += m.bytes;
  }
  // Every traced send is accounted in the worker byte totals and the
  // profile-level aggregate agrees.
  EXPECT_EQ(send_bytes, profile.total_bytes_sent());
  std::int64_t recv_bytes = 0;
  for (const WorkerProfile& w : profile.workers) {
    recv_bytes += w.bytes_received;
  }
  EXPECT_GT(recv_bytes, 0);
  EXPECT_LE(recv_bytes, send_bytes);  // padding/unconsumed sends allowed
  EXPECT_FALSE(profile.queue_depths.empty());

  // Tracing off: no per-message allocations on the hot path.
  Profile quiet;
  par.run(inputs, RunOptions{}, &quiet);
  EXPECT_TRUE(quiet.messages.empty());
  EXPECT_TRUE(quiet.queue_depths.empty());
  EXPECT_GT(quiet.total_bytes_sent(), 0);  // byte accounting is always on
}

// ------------------------------------------------------------- serving --

/// A one-tenant squeezenet fleet at batch 2 — the ramiel_serve set-up.
serve::fleet::FleetConfig serve_config() {
  serve::fleet::FleetConfig config =
      serve::fleet::single_tenant_config("squeezenet");
  config.models[0].batch = 2;
  return config;
}

/// Submits `n` seeded samples to the one tenant and waits for every one.
void serve_samples(serve::fleet::FleetServer& server, int n, unsigned seed) {
  (void)oracle::serve_all(
      server, "squeezenet",
      testing::example_inputs(server.model_entry("squeezenet")->compiled.graph,
                              n, seed));
}

TEST(ServeObs, ServerStatsJsonStrictlyValid) {
  serve::fleet::FleetServer server(serve_config());
  serve_samples(server, 4, 11);
  server.shutdown();

  const auto stats = server.tenant_stats("squeezenet");
  const std::string json = stats.to_json(/*ts_ms=*/123.5);
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"served\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ts_ms\":123.5"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
}

TEST(ServeObs, UnifiedServeTraceStrictlyValid) {
  serve::fleet::FleetOptions opts;
  opts.trace = true;
  opts.profile = true;
  serve::fleet::FleetServer server(serve_config(), opts);
  serve_samples(server, 6, 13);
  server.shutdown();

  const auto exemplars = server.tail_exemplars("squeezenet");
  ASSERT_FALSE(exemplars.empty());
  EXPECT_LE(exemplars.size(),
            static_cast<std::size_t>(serve::fleet::kProfileExemplars));
  EXPECT_GT(exemplars.front().wall_ms, 0.0);
  for (std::size_t i = 1; i < exemplars.size(); ++i) {
    EXPECT_GE(exemplars[i - 1].wall_ms, exemplars[i].wall_ms)
        << "exemplars are kept slowest first";
  }

  Timeline tl;
  add_compile_trace(server.model_entry("squeezenet")->compiled, tl);
  server.append_trace(tl);
  const std::string json = tl.to_chrome_json();
  EXPECT_TRUE(strictly_valid(json));
  // All three islands land in one file: compiler passes, the tenant's
  // batch-dispatch spans, and the slowest batch's task events.
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\",\"cat\":\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
}

TEST(ServeObs, MetricsEmitterWritesJsonlAndPromTextfile) {
  serve::fleet::FleetServer server(serve_config());

  const std::string dir = ::testing::TempDir();
  serve::MetricsEmitterOptions emit;
  emit.jsonl_path = dir + "/ramiel_obs_test_metrics.jsonl";
  emit.prom_path = dir + "/ramiel_obs_test_metrics.prom";
  emit.interval_ms = 5.0;
  {
    serve::MetricsEmitter emitter(
        [&server] { return server.tenant_window_stats("squeezenet"); }, emit);
    serve_samples(server, 4, 17);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    emitter.stop();
    EXPECT_GE(emitter.emits(), 1);
  }
  server.shutdown();

  std::ifstream jsonl(emit.jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int lines = 0;
  std::string last;
  while (std::getline(jsonl, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(strictly_valid(line)) << "line " << lines;
    last = line;
    ++lines;
  }
  EXPECT_GE(lines, 1);
  EXPECT_NE(last.find("\"served\":4"), std::string::npos);

  std::ifstream prom(emit.prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream ss;
  ss << prom.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ramiel_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ramiel_serve_latency_ms_bucket"), std::string::npos);
  // The textfile carries the whole registry, runtime families included.
  EXPECT_NE(text.find("ramiel_rt_tasks_total"), std::string::npos);

  std::remove(emit.jsonl_path.c_str());
  std::remove(emit.prom_path.c_str());
}

}  // namespace
}  // namespace ramiel

// offline_bert: closed loop, one caller thread. One operation is one run()
// of bert at batch 4 on the work-stealing runtime with the arena memory
// plan; large GEMM, attention and elementwise kernels dominate.
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "models/zoo.h"
#include "graph/op_eval.h"
#include "obs/metrics.h"
#include "obs/prof/critical_path.h"
#include "rt/inputs.h"
#include "rt/steal/steal_executor.h"

namespace perfbench {
namespace {

constexpr int kBatch = 4;
constexpr int kSeqReps = 3;

constexpr const char* kModel = "bert";
constexpr ramiel::ExecutorKind kKind = ramiel::ExecutorKind::kSteal;
// Goodput limit per batch, above the p99 measured on the commit that
// introduced the benchmark.
constexpr double kLimitMs = 500.0;

/// The fleet registry's options (batch 4, memory plan, no codegen) plus
/// constant folding, which folds bert's constant subgraphs and leaves 2
/// clusters instead of 4: its 2 workers and the caller then fit on 4 cores,
/// with one to spare for the rest of the host.
ramiel::PipelineOptions compile_options() {
  ramiel::PipelineOptions o;
  o.constant_folding = true;
  o.batch = kBatch;
  o.generate_code = false;
  o.mem_planning = true;
  return o;
}

/// Shape of every value when `sample` flows through the graph, by value id.
/// Static shape inference leaves some values unknown (e.g. behind Reshape),
/// so this evaluates the graph once, node by node.
std::vector<ramiel::Shape> runtime_shapes(const ramiel::Graph& g,
                                          const TensorMap& sample) {
  std::vector<ramiel::Tensor> value(g.values().size());
  std::vector<ramiel::Shape> shape(g.values().size());
  for (const ramiel::Value& v : g.values()) {
    if (v.const_data) value[static_cast<std::size_t>(v.id)] = *v.const_data;
    auto it = sample.find(v.name);
    if (it != sample.end()) value[static_cast<std::size_t>(v.id)] = it->second;
    shape[static_cast<std::size_t>(v.id)] =
        value[static_cast<std::size_t>(v.id)].shape();
  }
  for (ramiel::NodeId id : g.topo_order()) {
    const ramiel::Node& n = g.node(id);
    if (n.kind == ramiel::OpKind::kConstant) continue;  // data on its output
    std::vector<ramiel::Tensor> in;
    for (ramiel::ValueId v : n.inputs) {
      in.push_back(value[static_cast<std::size_t>(v)]);
    }
    std::vector<ramiel::Tensor> out = ramiel::eval_node(n, in);
    for (std::size_t i = 0; i < out.size() && i < n.outputs.size(); ++i) {
      const auto v = static_cast<std::size_t>(n.outputs[i]);
      shape[v] = out[i].shape();
      value[v] = std::move(out[i]);
    }
  }
  return shape;
}

/// Kernel FLOPs of one (node, sample) task, computed from its shapes: 2 per
/// multiply-accumulate of Conv2d, MatMul and Gemm; 0 for everything else.
double task_flops(const std::vector<ramiel::Shape>& shapes,
                  const ramiel::Node& n) {
  using ramiel::OpKind;
  if (n.outputs.empty() || n.inputs.size() < 2) return 0.0;
  auto shape_of = [&](ramiel::ValueId v) -> const ramiel::Shape& {
    return shapes[static_cast<std::size_t>(v)];
  };
  const double out = static_cast<double>(shape_of(n.outputs[0]).numel());
  const ramiel::Shape& a = shape_of(n.inputs[0]);
  const ramiel::Shape& b = shape_of(n.inputs[1]);
  switch (n.kind) {
    case OpKind::kConv2d:  // weight [Cout, Cin/groups, kh, kw]
      if (b.rank() != 4) return 0.0;
      return 2.0 * out * static_cast<double>(b.dim(1) * b.dim(2) * b.dim(3));
    case OpKind::kMatMul:
      if (a.rank() < 2) return 0.0;
      return 2.0 * out * static_cast<double>(a.dim(a.rank() - 1));
    case OpKind::kGemm:
      if (a.rank() != 2) return 0.0;
      return 2.0 * out *
             static_cast<double>(n.attrs.get_int("trans_a", 0) != 0 ? a.dim(0)
                                                                   : a.dim(1));
    default:
      return 0.0;
  }
}

enum KernelClass { kConv, kMatmul, kElementwise, kNorm, kOther, kNumClasses };

KernelClass classify(ramiel::OpKind kind) {
  using ramiel::OpKind;
  switch (kind) {
    case OpKind::kConv2d:
      return kConv;
    case OpKind::kMatMul:
    case OpKind::kGemm:
      return kMatmul;
    case OpKind::kBatchNorm:
    case OpKind::kLayerNorm:
    case OpKind::kSoftmax:
      return kNorm;
    default:
      return ramiel::op_is_elementwise(kind) ? kElementwise : kOther;
  }
}

void observe_run(const ramiel::CompiledModel& cm, const ramiel::Executor& ex,
                 const std::vector<ramiel::Shape>& shapes,
                 const ramiel::Profile& profile, Samples* layers) {
  const ramiel::Graph& g = cm.graph;
  layers->add("rt.run_ms", profile.wall_ms);

  ramiel::prof::AnalyzeOptions ao;
  ao.keep_path = false;
  ao.what_if = false;
  ao.top_ops = 0;
  const auto cp = ramiel::prof::analyze(g, cm.hyperclusters, profile, ao);
  layers->add("rt.critpath_compute_ms", cp.compute_ms);
  layers->add("rt.critpath_comm_ms", cp.comm_ms);
  layers->add("rt.critpath_queue_ms", cp.queue_ms);
  layers->add("rt.critpath_idle_ms", cp.idle_ms);

  double busy = 0.0, recv_wait = 0.0, bytes = 0.0;
  double tasks = 0.0, stolen = 0.0, messages = 0.0, avoided = 0.0;
  for (const auto& w : profile.workers) {
    busy += static_cast<double>(w.busy_ns) / 1e6;
    recv_wait += static_cast<double>(w.recv_wait_ns) / 1e6;
    bytes += static_cast<double>(w.bytes_sent);
    tasks += w.tasks;
    stolen += w.tasks_stolen;
    messages += w.messages_sent;
    avoided += w.allocs_avoided;
  }
  layers->add("rt.busy_ms", busy);
  layers->add("rt.recv_wait_ms", recv_wait);
  layers->add("rt.utilization", profile.utilization());
  layers->add("rt.tasks", tasks);
  layers->add("rt.messages", messages);
  layers->add("rt.bytes_sent_kb", bytes / 1024.0);
  layers->add("steal.stolen_ratio", tasks > 0 ? stolen / tasks : 0.0);

  std::vector<double> task_us;
  double class_ms[kNumClasses] = {};
  double matmul_flops = 0.0, conv_flops = 0.0, outputs = 0.0;
  for (const auto& ev : profile.events) {
    const ramiel::Node& n = g.node(ev.node);
    const double ms = static_cast<double>(ev.end_ns - ev.start_ns) / 1e6;
    task_us.push_back(ms * 1e3);
    const KernelClass c = classify(n.kind);
    class_ms[c] += ms;
    if (c == kMatmul) matmul_flops += task_flops(shapes, n);
    if (c == kConv) conv_flops += task_flops(shapes, n);
    outputs += static_cast<double>(n.outputs.size());
  }
  layers->add("rt.task_us_p50", median(task_us));
  layers->add("mem.arena_hit_ratio", outputs > 0 ? avoided / outputs : 0.0);
  layers->add("tensor.conv_ms", class_ms[kConv]);
  layers->add("tensor.matmul_ms", class_ms[kMatmul]);
  layers->add("tensor.elementwise_ms", class_ms[kElementwise]);
  layers->add("tensor.norm_ms", class_ms[kNorm]);
  layers->add("tensor.other_ms", class_ms[kOther]);
  layers->add("tensor.matmul_gflops",
              class_ms[kMatmul] > 0 ? matmul_flops / (class_ms[kMatmul] * 1e6)
                                    : 0.0);
  layers->add("tensor.conv_gflops",
              class_ms[kConv] > 0 ? conv_flops / (class_ms[kConv] * 1e6) : 0.0);

  const auto* steal = dynamic_cast<const ramiel::StealExecutor*>(&ex);
  layers->add("mem.arena_mb",
              steal ? static_cast<double>(steal->arena_bytes_allocated()) /
                          (1024.0 * 1024.0)
                    : 0.0);
}

/// One complete set-up: graph, compiled program, executor, first output.
struct Deployment {
  ramiel::CompiledModel cm;
  std::unique_ptr<ramiel::Executor> executor;
  std::vector<TensorMap> first;
};

}  // namespace

Result run_offline_bert(const Args& args) {
  Result result;
  Tracer tr(args.trace);

  // Inputs come from the seed; the reference is the sequential executor on
  // the unmodified graph, in f32. That graph is dropped once both exist, and
  // the high-water mark is reset, so peak_rss_mb is the program's alone.
  std::vector<TensorMap> inputs;
  std::vector<TensorMap> reference;
  {
    const ramiel::Graph original = ramiel::models::build(kModel);
    ramiel::Rng rng(args.seed);
    inputs = ramiel::make_example_inputs(original, kBatch, rng);
    reference = ramiel::SequentialExecutor(&original).run(inputs);
  }
  reset_peak_rss();

  Samples layers;
  std::unique_ptr<Deployment> dep;
  std::string setup_error;
  auto setup = [&] {
    tr.set_enabled(args.trace);
    Scope s(tr, "setup");
    dep = std::make_unique<Deployment>();
    ramiel::Stopwatch sw;
    ramiel::Graph g;
    {
      Scope b(tr, "models.build");
      g = ramiel::models::build(kModel);
    }
    const double build_ms = sw.millis();
    sw.reset();
    {
      Scope c(tr, "ramiel.compile");
      dep->cm = ramiel::compile_model(std::move(g), compile_options());
      tr.add_passes(dep->cm, c.id());
    }
    add_compile_layers({&dep->cm}, build_ms, sw.millis(), &layers);
    {
      Scope c(tr, "rt.construct");
      dep->executor = ramiel::make_executor(
          kKind, &dep->cm.graph, dep->cm.hyperclusters, &dep->cm.mem_plan);
    }
    {
      Scope r(tr, "rt.first_run");
      dep->first = dep->executor->run(inputs);
    }
    Scope c(tr, "check");
    return outputs_close(reference, dep->first, &setup_error);
  };
  if (!setup()) result.tally.fail("set-up: " + setup_error);
  const std::vector<ramiel::Shape> shapes =
      args.trace ? runtime_shapes(dep->cm.graph, inputs[0])
                 : std::vector<ramiel::Shape>{};

  // Closed loop on the standing deployment. Every output must be
  // bit-identical to that deployment's first. A traced run alternates
  // untraced and traced runs, so drift in the host's speed lands on both
  // alike; latencies go to lat[traced].
  ramiel::Profile last_profile;
  double good = 0.0;
  double verified = 0.0;
  double window_s = 0.0;
  double heap_fallbacks = 0.0;
  ramiel::obs::Counter* heap_scratch =
      ramiel::obs::registry().counter("ramiel_kernel_scratch_heap_total");
  std::vector<double> lat[2];
  std::int64_t op = 0;
  auto run_for = [&](double seconds, bool timed) {
    ramiel::Stopwatch sw;
    for (; sw.seconds() < seconds; ++op) {
      const bool traced = timed && args.trace && op % 2 == 1;
      tr.set_enabled(traced);
      ramiel::RunOptions opts;
      opts.trace = traced;
      ramiel::Profile profile;
      const std::uint64_t heap_before = heap_scratch->value();
      try {
        std::vector<TensorMap> out;
        ramiel::Stopwatch run;
        {
          Scope r(tr, "rt.run", op);
          out = dep->executor->run(inputs, opts, traced ? &profile : nullptr);
        }
        if (timed) lat[traced].push_back(run.millis());
        std::string why;
        Scope c(tr, "check", op);
        if (!result.tally.record(outputs_identical(dep->first, out, &why),
                                 why) ||
            !timed) {
          continue;
        }
      } catch (const std::exception& e) {
        result.tally.fail(std::string("run threw: ") + e.what());
        continue;
      }
      heap_fallbacks +=
          static_cast<double>(heap_scratch->value() - heap_before);
      verified += kBatch;
      if (lat[traced].back() <= kLimitMs) good += kBatch;
      if (traced) {
        observe_run(dep->cm, *dep->executor, shapes, profile, &layers);
        last_profile = std::move(profile);
      }
    }
    if (timed) window_s += sw.seconds();
  };

  run_for(kWarmupSeconds, false);
  bool setup_ok = true;
  const std::vector<double> setups = sliced_window(
      kSetupReps, setup, [&] { dep.reset(); },
      [&](int) { run_for(args.seconds / kSetupReps, true); }, &setup_ok);
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

  const ramiel::CompiledModel& cm = dep->cm;
  std::vector<double> seq_ms;
  {
    Scope s(tr, "rt.sequential");
    ramiel::SequentialExecutor seq(&cm.graph);
    for (int i = 0; i < kSeqReps; ++i) {
      ramiel::Stopwatch sw;
      seq.run(inputs);
      seq_ms.push_back(sw.millis());
    }
  }

  layers.put(&result);
  const double timed_runs = static_cast<double>(lat[0].size() + lat[1].size());
  result.put("rt.seq_ms", median(seq_ms));
  result.put("rt.speedup_vs_seq", median(seq_ms) / median(lat[0]));
  result.put("tensor.scratch_heap_fallbacks",
             timed_runs > 0 ? heap_fallbacks / timed_runs : 0.0);
  result.put("latency.p90_ms", percentile(lat[0], 0.90));
  result.put("trace.overhead_pct", overhead_pct(lat[0], lat[1]));
  ramiel::prof::AnalyzeOptions ao;
  ao.what_if = false;
  tr.write(std::string(kTraceDir) + "/offline_bert-" +
               std::to_string(args.seed) + ".json",
           args,
           {{"compile_report", ramiel::compile_report_json(cm)},
            {"profile", last_profile.to_chrome_trace(cm.graph)},
            {"critical_path",
             ramiel::prof::analyze(cm.graph, cm.hyperclusters, last_profile,
                                   ao)
                 .to_json()}});
  return result;
}

}  // namespace perfbench

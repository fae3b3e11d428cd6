#include "serve/fleet/pipeline.h"

#include <algorithm>
#include <future>

#include "graph/cost_model.h"
#include "mem/planner.h"
#include "obs/metrics.h"
#include "rt/exec_util.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "tensor/thread_pool.h"

namespace ramiel::serve::fleet {

using rt::collect_static_outputs;
using rt::fetch_static_input;
using rt::is_graph_output;

double StageCut::modeled_speedup() const {
  std::int64_t total = 0, bottleneck = 0;
  for (std::int64_t c : stage_cost) {
    total += c;
    bottleneck = std::max(bottleneck, c);
  }
  return bottleneck <= 0 ? 1.0
                         : static_cast<double>(total) /
                               static_cast<double>(bottleneck);
}

namespace {

/// One cut unit: a maximal run of consecutive same-cluster nodes in the
/// graph's topological order. Cutting only between runs keeps every stage
/// boundary a cluster boundary while staying topological even when the
/// cluster quotient graph is cyclic (interleaved linear clusters are
/// common — squeezenet's two clusters alternate eight times).
struct ClusterRun {
  std::vector<NodeId> nodes;
  std::int64_t cost = 0;
};

std::vector<ClusterRun> cluster_runs(const Graph& graph,
                                     const Clustering& clustering) {
  std::vector<ClusterRun> runs;
  int prev_cluster = -1;
  bool have_run = false;
  for (NodeId id : graph.topo_order()) {
    const Node& n = graph.node(id);
    const int c = clustering.cluster_of[static_cast<std::size_t>(id)];
    // Unclustered nodes (constants the planner left out) ride along with
    // the current run: they cost nothing and must not split a run.
    if (!have_run || (c >= 0 && c != prev_cluster)) {
      runs.emplace_back();
      have_run = true;
      prev_cluster = c >= 0 ? c : prev_cluster;
    }
    runs.back().nodes.push_back(id);
    runs.back().cost += node_weight(n);
  }
  return runs;
}

}  // namespace

StageCut build_stage_cut(const Graph& graph, const Clustering& clustering,
                         int stages) {
  RAMIEL_CHECK(stages >= 1, "need at least one stage");
  const std::vector<ClusterRun> runs = cluster_runs(graph, clustering);
  const int k = static_cast<int>(runs.size());
  const int s_count = std::min(stages, std::max(1, k));
  std::int64_t total = 0;
  for (const ClusterRun& r : runs) total += r.cost;

  StageCut cut;
  cut.stage_nodes.resize(static_cast<std::size_t>(s_count));
  cut.stage_cost.assign(static_cast<std::size_t>(s_count), 0);
  // Greedy balanced contiguous cut: stage s closes once the running prefix
  // reaches the ideal fraction (s+1)/S of total cost — while always leaving
  // at least one run for each remaining stage.
  int i = 0;
  std::int64_t prefix = 0;
  for (int s = 0; s < s_count; ++s) {
    const std::int64_t target =
        total * static_cast<std::int64_t>(s + 1) / s_count;
    const int must_leave = s_count - s - 1;
    do {
      auto& nodes = cut.stage_nodes[static_cast<std::size_t>(s)];
      nodes.insert(nodes.end(), runs[static_cast<std::size_t>(i)].nodes.begin(),
                   runs[static_cast<std::size_t>(i)].nodes.end());
      cut.stage_cost[static_cast<std::size_t>(s)] +=
          runs[static_cast<std::size_t>(i)].cost;
      prefix += runs[static_cast<std::size_t>(i)].cost;
      ++i;
    } while (i < k - must_leave && (s + 1 == s_count || prefix < target));
  }
  RAMIEL_CHECK(i == k, "stage cut must cover every run");
  return cut;
}

struct PipelinedRunner::Flight {
  std::uint64_t id = 0;
  int parity = 0;
  std::vector<TensorMap> inputs;
  RunOptions options;
  /// Per-sample value table shared by the stages; a flight's stages run
  /// strictly in order, so no locking.
  std::vector<std::unordered_map<ValueId, Tensor>> values;
  std::vector<TensorMap> results;
  Completion done;
  std::exception_ptr error;
  Profile profile;  // one WorkerProfile per stage
};

PipelinedRunner::PipelinedRunner(const Graph* graph,
                                 const Clustering& clustering,
                                 int stages, int batch, bool mem_plan,
                                 const std::string& label)
    : graph_(graph),
      cut_(build_stage_cut(*graph, clustering, stages)),
      batch_(batch) {
  RAMIEL_CHECK(batch_ >= 1, "batch must be >= 1");
  const int s_count = cut_.num_stages();

  // Synthetic hyperclustering: worker s = stage s. The planner then lays
  // out per-(stage, sample) slot tables with cross-stage values pinned for
  // the whole flight (they look like cross-worker sends).
  hc_.batch = batch_;
  hc_.num_nodes = static_cast<int>(graph_->nodes().size());
  hc_.worker_of.assign(static_cast<std::size_t>(batch_) *
                           static_cast<std::size_t>(hc_.num_nodes),
                       -1);
  hc_.workers.resize(static_cast<std::size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    auto& tasks = hc_.workers[static_cast<std::size_t>(s)];
    for (int sample = 0; sample < batch_; ++sample) {
      for (NodeId id : cut_.stage_nodes[static_cast<std::size_t>(s)]) {
        tasks.push_back(HyperTask{id, sample});
        hc_.worker_of[static_cast<std::size_t>(sample) *
                          static_cast<std::size_t>(hc_.num_nodes) +
                      static_cast<std::size_t>(id)] = s;
      }
    }
  }

  if (mem_plan) {
    plan_ = mem::plan_memory(*graph_, hc_);
    node_slots_ = rt::planned_slots(*graph_, plan_);
  }

  arenas_.resize(static_cast<std::size_t>(s_count));
  for (auto& pair : arenas_) pair = std::vector<mem::MemArena>(2);

  stage_busy_.reserve(static_cast<std::size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    stage_busy_.push_back(obs::registry().gauge(
        "ramiel_fleet_pipeline_stage_busy",
        "1 while this pipeline stage is executing a flight",
        {{"model", label}, {"stage", std::to_string(s)}}));
  }
  flights_total_ = obs::registry().counter(
      "ramiel_fleet_pipeline_flights_total",
      "Batches that completed the stage pipeline", {{"model", label}});

  queues_.resize(static_cast<std::size_t>(s_count));
  threads_.reserve(static_cast<std::size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    threads_.emplace_back([this, s] { stage_loop(s); });
  }
}

PipelinedRunner::~PipelinedRunner() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Drain: every admitted flight completes (and runs its callback)
    // before the stage threads are told to exit.
    admit_cv_.wait(lk, [&] { return in_flight_ == 0; });
    shutdown_ = true;
  }
  stage_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::uint64_t PipelinedRunner::flights_completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return flights_completed_;
}

std::vector<std::pair<const float*, std::size_t>>
PipelinedRunner::arena_spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<const float*, std::size_t>> spans;
  for (const auto& pair : arenas_) {
    for (const mem::MemArena& a : pair) {
      if (a.capacity_bytes() > 0) {
        spans.emplace_back(const_cast<mem::MemArena&>(a).data(),
                           a.capacity_bytes());
      }
    }
  }
  return spans;
}

void PipelinedRunner::submit(std::vector<TensorMap> inputs,
                             const RunOptions& options, Completion done) {
  RAMIEL_CHECK(static_cast<int>(inputs.size()) == batch_,
               str_cat("batch size mismatch: pipeline built for batch ",
                       batch_, ", submit() got ", inputs.size()));
  auto flight = std::make_shared<Flight>();
  flight->inputs = std::move(inputs);
  flight->options = options;
  flight->done = std::move(done);
  flight->values.resize(static_cast<std::size_t>(batch_));
  flight->results.resize(static_cast<std::size_t>(batch_));
  flight->profile.workers.resize(static_cast<std::size_t>(num_stages()));
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Depth-2 admission: with flights f and f+1 in the pipe, parities 0
    // and 1 are both in use; f+2 (the same parity as f) may only enter
    // once f fully completed — that is what makes parity double-buffering
    // safe against skip edges.
    admit_cv_.wait(lk, [&] { return shutdown_ || in_flight_ < kDepth; });
    RAMIEL_CHECK(!shutdown_, "pipeline is shut down");
    flight->id = flight_seq_++;
    flight->parity = static_cast<int>(flight->id % 2);
    ++in_flight_;
    queues_[0].push_back(flight);
  }
  stage_cv_.notify_all();
}

std::vector<TensorMap> PipelinedRunner::run(
    const std::vector<TensorMap>& inputs, const RunOptions& options) {
  auto result = std::make_shared<std::promise<std::vector<TensorMap>>>();
  std::future<std::vector<TensorMap>> outputs = result->get_future();
  submit(std::vector<TensorMap>(inputs), options,
         [result](std::vector<TensorMap> out, std::exception_ptr error,
                  const Profile&) {
           if (error) {
             result->set_exception(error);
           } else {
             result->set_value(std::move(out));
           }
         });
  return outputs.get();
}

void PipelinedRunner::stage_loop(int stage) {
  const int last = cut_.num_stages() - 1;
  // Persistent intra-op pool, rebuilt only on width change (as in
  // rt/executor.cc's worker_loop).
  std::unique_ptr<ThreadPool> pool;
  int pool_threads = 1;

  while (true) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lk(mu_);
      stage_cv_.wait(lk, [&] {
        return shutdown_ || !queues_[static_cast<std::size_t>(stage)].empty();
      });
      if (queues_[static_cast<std::size_t>(stage)].empty()) return;
      flight = queues_[static_cast<std::size_t>(stage)].front();
      queues_[static_cast<std::size_t>(stage)].pop_front();
    }

    const std::int64_t start_ns = Stopwatch::now_ns();
    if (stage == 0) flight->profile.start_ns = start_ns;
    if (!flight->error) {
      if (flight->options.intra_op_threads != pool_threads) {
        pool.reset();
        if (flight->options.intra_op_threads > 1) {
          pool = std::make_unique<ThreadPool>(
              flight->options.intra_op_threads - 1);
        }
        pool_threads = flight->options.intra_op_threads;
      }
      OpContext ctx;
      if (pool_threads > 1) {
        ctx.threads = pool_threads;
        ctx.pool = pool.get();
      }
      stage_busy_[static_cast<std::size_t>(stage)]->set(1.0);
      try {
        execute_stage(stage, *flight, ctx);
      } catch (...) {
        flight->error = std::current_exception();
      }
      stage_busy_[static_cast<std::size_t>(stage)]->set(0.0);
    }
    const std::int64_t end_ns = Stopwatch::now_ns();
    flight->profile.workers[static_cast<std::size_t>(stage)].busy_ns =
        end_ns - start_ns;

    if (stage < last) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        queues_[static_cast<std::size_t>(stage + 1)].push_back(flight);
      }
      stage_cv_.notify_all();
      continue;
    }

    // Flight complete. Drop every arena-backed tensor BEFORE releasing the
    // depth slot: the next same-parity flight may grow these arenas. The
    // callback runs inside the slot, so the destructor's drain covers it.
    flight->values.clear();
    flight->inputs.clear();
    flight->profile.end_ns = end_ns;
    flight->profile.wall_ms =
        static_cast<double>(end_ns - flight->profile.start_ns) / 1e6;
    {
      // Counted before the callback, so whoever it wakes sees the flight
      // as completed.
      std::lock_guard<std::mutex> lk(mu_);
      ++flights_completed_;
    }
    if (!flight->error) flights_total_->inc();
    flight->done(flight->error ? std::vector<TensorMap>{}
                               : std::move(flight->results),
                 flight->error, flight->profile);
    flight.reset();  // the callback's captures go with the flight
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
    }
    admit_cv_.notify_all();
  }
}

void PipelinedRunner::execute_stage(int stage, Flight& flight,
                                    const OpContext& ctx) {
  const Graph& g = *graph_;
  const bool planned = !plan_.empty();
  mem::MemArena* arena = nullptr;
  mem::SlotSink sink;
  float* arena_base = nullptr;
  if (planned) {
    arena = &arenas_[static_cast<std::size_t>(stage)]
                    [static_cast<std::size_t>(flight.parity)];
    // Safe to (re)size: the previous flight on this parity has fully
    // completed and cleared its tensors (depth-2 invariant).
    arena->ensure(static_cast<std::size_t>(
        plan_.workers[static_cast<std::size_t>(stage)].arena_bytes));
    arena_base = arena->data();
    sink.set_scratch_arena(arena);
  }

  if (stage == 0) {
    // Constant or pass-through graph outputs; a missing input fails the
    // flight here rather than the submitting thread.
    for (int s = 0; s < batch_; ++s) {
      collect_static_outputs(g, flight.inputs[static_cast<std::size_t>(s)],
                             &flight.results[static_cast<std::size_t>(s)]);
    }
  }
  for (int sample = 0; sample < batch_; ++sample) {
    auto& loc = flight.values[static_cast<std::size_t>(sample)];
    const TensorMap& sample_inputs =
        flight.inputs[static_cast<std::size_t>(sample)];
    for (const HyperTask& task :
         hc_.workers[static_cast<std::size_t>(stage)]) {
      if (task.sample != sample) continue;
      const Node& n = g.node(task.node);
      if (n.kind == OpKind::kConstant) continue;

      std::vector<Tensor> inputs;
      inputs.reserve(n.inputs.size());
      for (ValueId v : n.inputs) {
        Tensor t;
        if (fetch_static_input(g, v, sample_inputs, &t)) {
          inputs.push_back(std::move(t));
          continue;
        }
        auto it = loc.find(v);
        RAMIEL_CHECK(it != loc.end(),
                     str_cat("pipeline: value '", g.value(v).name,
                             "' not produced by an earlier stage (cut is "
                             "not topological)"));
        inputs.push_back(it->second);
      }

      const std::vector<rt::PlannedOut>* planned_outs = nullptr;
      if (planned) {
        const auto& table = node_slots_[static_cast<std::size_t>(stage)]
                                       [static_cast<std::size_t>(sample)];
        auto pit = table.find(task.node);
        if (pit != table.end()) planned_outs = &pit->second;
      }
      std::vector<Tensor> outputs =
          rt::eval_planned(n, inputs, ctx, sink, arena_base, planned_outs);

      for (std::size_t i = 0; i < outputs.size(); ++i) {
        const ValueId ov = n.outputs[i];
        if (is_graph_output(g, ov)) {
          // Results outlive the flight; detach arena-backed tensors.
          Tensor out =
              outputs[i].owns_storage() ? outputs[i] : outputs[i].clone();
          flight.results[static_cast<std::size_t>(sample)].emplace(
              g.value(ov).name, std::move(out));
        }
        loc[ov] = std::move(outputs[i]);
      }
    }
  }
}

}  // namespace ramiel::serve::fleet

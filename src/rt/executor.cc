#include "rt/executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <numeric>
#include <tuple>

#include "graph/op_eval.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "rt/doorbell.h"
#include "rt/exec_util.h"
#include "rt/steal/deque.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "support/string_util.h"
#include "tensor/thread_pool.h"

namespace ramiel {

using rt::collect_static_outputs;
using rt::fetch_static_input;
using rt::is_graph_output;

namespace {

/// Process-wide runtime counters, resolved once. Bumped per run() (not per
/// task) so the hot path only touches the per-run WorkerProfile.
struct RtMetrics {
  obs::Counter* tasks = obs::registry().counter(
      "ramiel_rt_tasks_total", "Graph tasks executed (node x sample)");
  obs::Counter* messages = obs::registry().counter(
      "ramiel_rt_messages_total", "Cross-worker tensor messages delivered");
  obs::Counter* bytes_sent = obs::registry().counter(
      "ramiel_rt_bytes_sent_total", "Cross-worker message payload bytes");
  obs::Counter* runs = obs::registry().counter(
      "ramiel_rt_runs_total", "Executor run() calls completed");
  obs::Histogram* run_wall_ms = obs::registry().histogram(
      "ramiel_rt_run_wall_ms", "Executor run() wall time (ms)");
  obs::Counter* allocs_avoided = obs::registry().counter(
      "ramiel_mem_alloc_avoided_total",
      "Kernel output allocations served from a planned arena slot");
  obs::Counter* arena_grows = obs::registry().counter(
      "ramiel_mem_arena_grow_total",
      "Times a nonempty worker arena had to be reallocated larger");
  obs::Counter* steals = obs::registry().counter(
      "ramiel_steal_steals_total",
      "Tasks obtained by stealing from another worker's deque");
};

RtMetrics& rt_metrics() {
  static RtMetrics* m = new RtMetrics();
  return *m;
}

void record_run_metrics(const std::vector<WorkerProfile>& wps,
                        double wall_ms) {
  RtMetrics& m = rt_metrics();
  std::uint64_t tasks = 0, messages = 0, bytes = 0, avoided = 0, steals = 0;
  for (const WorkerProfile& w : wps) {
    tasks += static_cast<std::uint64_t>(w.tasks);
    messages += static_cast<std::uint64_t>(w.messages_sent);
    bytes += static_cast<std::uint64_t>(w.bytes_sent);
    avoided += static_cast<std::uint64_t>(w.allocs_avoided);
    steals += static_cast<std::uint64_t>(w.tasks_stolen);
  }
  m.tasks->inc(tasks);
  m.messages->inc(messages);
  m.bytes_sent->inc(bytes);
  if (avoided > 0) m.allocs_avoided->inc(avoided);
  if (steals > 0) m.steals->inc(steals);
  m.runs->inc();
  m.run_wall_ms->observe(wall_ms);
}

}  // namespace

SequentialExecutor::SequentialExecutor(const Graph* graph) : graph_(graph) {
  RAMIEL_CHECK(graph != nullptr, "graph must not be null");
  order_ = graph->topo_order();
}

std::vector<TensorMap> SequentialExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) const {
  const Graph& g = *graph_;
  const int batch = static_cast<int>(batch_inputs.size());
  RAMIEL_CHECK(batch >= 1, "need at least one sample");

  std::unique_ptr<ThreadPool> pool;
  OpContext ctx;
  if (options.intra_op_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.intra_op_threads - 1);
    ctx.threads = options.intra_op_threads;
    ctx.pool = pool.get();
  }

  Stopwatch wall;
  const std::int64_t run_t0 = Stopwatch::now_ns();
  std::vector<TensorMap> results(static_cast<std::size_t>(batch));
  WorkerProfile wp;
  std::vector<TaskEvent> events;

  for (int s = 0; s < batch; ++s) {
    std::unordered_map<ValueId, Tensor> local;
    collect_static_outputs(g, batch_inputs[static_cast<std::size_t>(s)],
                           &results[static_cast<std::size_t>(s)]);
    for (NodeId id : order_) {
      const Node& n = g.node(id);
      // Constant nodes carry their payload on the output value; consumers
      // read it directly, so the "execution" is a no-op.
      if (n.kind == OpKind::kConstant) {
        ++wp.tasks;
        continue;
      }
      std::vector<Tensor> inputs;
      inputs.reserve(n.inputs.size());
      for (ValueId v : n.inputs) {
        Tensor t;
        if (!fetch_static_input(g, v, batch_inputs[static_cast<std::size_t>(s)],
                                &t)) {
          auto it = local.find(v);
          RAMIEL_CHECK(it != local.end(),
                       str_cat("value '", g.value(v).name,
                               "' not yet computed (topo order violated)"));
          t = it->second;
        }
        inputs.push_back(std::move(t));
      }
      const std::int64_t t0 = Stopwatch::now_ns();
      std::vector<Tensor> outputs = eval_node(n, inputs, ctx);
      const std::int64_t t1 = Stopwatch::now_ns();
      wp.busy_ns += t1 - t0;
      ++wp.tasks;
      if (profile != nullptr && options.trace) {
        events.push_back(TaskEvent{id, s, 0, t0, t1});
      }
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        const ValueId ov = n.outputs[i];
        if (is_graph_output(g, ov)) {
          results[static_cast<std::size_t>(s)].emplace(g.value(ov).name,
                                                       outputs[i]);
        }
        local[ov] = std::move(outputs[i]);
      }
    }
  }

  const std::int64_t run_t1 = Stopwatch::now_ns();
  record_run_metrics({wp}, wall.millis());
  if (profile != nullptr) {
    profile->wall_ms = wall.millis();
    profile->start_ns = run_t0;
    profile->end_ns = run_t1;
    profile->workers = {wp};
    profile->events = std::move(events);
    profile->messages.clear();
    profile->queue_depths.clear();
  }
  return results;
}

/// One hosted model: its task graph, the pinned placement's walk order and
/// message edges, its memory plan, and the run slots its runs use.
struct ParallelExecutor::Program {
  const Graph* graph = nullptr;
  Hyperclustering hc;
  steal::TaskGraph tg;
  /// streams[home][sample] = that home's task ids for the sample, in the
  /// cluster's topological order (the order the pinned placement walks).
  std::vector<std::vector<std::vector<std::int32_t>>> streams;
  /// seeds[home] = the task graph's seeds homed there (the steal
  /// placement's first work for that worker).
  std::vector<std::vector<std::int32_t>> seeds;
  /// A run of n samples runs the tasks of samples [0, n) only (no edge
  /// crosses samples): tasks_below[n] counts them, seeds_from[n] counts the
  /// seeds of samples >= n, which the steal placement claims and skips.
  std::vector<std::int64_t> tasks_below;
  std::vector<std::int64_t> seeds_from;
  /// One per (value, sample, consuming home != producing home): the
  /// producer task and the first consuming task in that home's stream —
  /// the pinned placement's messages.
  struct CrossEdge {
    std::int32_t producer;
    std::int32_t consumer;
    ValueId value;
  };
  std::vector<CrossEdge> cross_edges;
  /// Static memory plan (empty = disabled) and each task's planned outputs
  /// (null = none; points into `slots`).
  mem::MemPlan plan;
  rt::PlannedSlots slots;
  std::vector<const std::vector<rt::PlannedOut>*> task_slots;
  /// Every run slot made so far and the ones not in flight (guarded by
  /// mu_). Slots live as long as the executor: a worker may still hold a
  /// finished run's slot in its copy of the in-flight list.
  std::vector<std::unique_ptr<RunSlot>> runs;
  std::vector<RunSlot*> free_runs;
  bool live = true;
  int workers() const { return static_cast<int>(hc.workers.size()); }
};

/// The state of one run in flight: its own dependency counters, value table
/// and per-home arenas (sized once, when the slot is made), and the run's
/// inputs, options, per-worker profiles and completion (reset by each run
/// that takes the slot, before the run is published).
struct ParallelExecutor::RunSlot {
  /// Steal placement: the deque handle of one task of this slot.
  struct Job {
    RunSlot* run;
    std::int32_t task;
  };
  /// Pinned placement: one home worker's walk over its streams of the run.
  /// Only that worker touches it, and it resets itself when it first meets
  /// a new run id in the slot.
  struct alignas(64) Cursor {
    std::uint64_t run = 0;
    std::vector<std::size_t> pos;  // per sample
    std::size_t left = 0;          // tasks of this home not yet run
    int prefer = 0;                // the sample that ran last
  };

  Program* prog = nullptr;
  std::unique_ptr<std::atomic<std::int32_t>[]> deps;
  std::vector<Tensor> values;  // (value, sample) -> produced tensor
  std::vector<mem::MemArena> arenas;  // one per home
  std::vector<Job> jobs;              // steal: one per task
  std::vector<Cursor> cursors;        // pinned: one per home
  /// Steal: per home, the next unclaimed index into prog->seeds[home].
  std::unique_ptr<std::atomic<std::int32_t>[]> seed_next;

  std::atomic<std::uint64_t> run_id{0};  // 0 while the slot is free
  /// The run's sample count n, 1..batch. Atomic because a pinned worker
  /// holding a stale run id reads it while the slot may be refilled (see
  /// step_pinned).
  std::atomic<int> samples{0};
  /// Tasks of samples < n not yet finished, plus (steal) seeds of samples
  /// >= n not yet claimed: every seed cursor is spent before the slot frees.
  std::atomic<std::int64_t> remaining{0};
  std::atomic<bool> abort{false};  // a task failed: the rest only drain
  std::vector<TensorMap> owned_inputs;  // submit(): the run owns its batch
  const std::vector<TensorMap>* inputs = nullptr;
  RunOptions options;
  Completion done;
  std::int64_t start_ns = 0;
  std::vector<WorkerProfile> wps;
  std::vector<std::vector<TaskEvent>> wevents;
  /// Pinned placement with tracing: [start, end] of every task, from which
  /// the message events are synthesised after the run.
  std::vector<std::pair<std::int64_t, std::int64_t>> task_ns;
  std::exception_ptr first_error;
  std::mutex error_mu;
};

/// Per worker thread: its steal deque, its doorbell and the scratch arena
/// its kernels' pack/im2col buffers come from.
struct ParallelExecutor::Lane {
  steal::WorkDeque<const RunSlot::Job*> deque;
  rt::Doorbell bell;
  mem::MemArena scratch;
};

/// One worker thread's private state: its copy of the in-flight list and
/// the lanes, its intra-op pool and its slot sink.
struct ParallelExecutor::Worker {
  int me = 0;
  std::uint64_t gen = ~std::uint64_t{0};  // active_gen_ of the copy
  std::vector<RunSlot*> runs;  // in flight, oldest first
  std::vector<Lane*> lanes;
  // Persistent intra-op pool: rebuilt only when the requested width
  // changes (steady-state serving uses one width, so a one-time cost).
  std::unique_ptr<ThreadPool> pool;
  OpContext ctx;
  mem::SlotSink sink;
  std::int64_t wait_ns = 0;  // time blocked, charged to the next task's run
};

ParallelExecutor::ParallelExecutor(const Graph* graph, Hyperclustering hc,
                                   const mem::MemPlan* mem_plan,
                                   ExecutorKind placement)
    : ParallelExecutor(
          [&] {
            std::vector<ExecutorProgram> programs;
            programs.push_back(ExecutorProgram{graph, std::move(hc), mem_plan});
            return programs;
          }(),
          placement) {}

ParallelExecutor::ParallelExecutor(std::vector<ExecutorProgram> programs,
                                   ExecutorKind placement)
    : placement_(placement) {
  RAMIEL_CHECK(placement == ExecutorKind::kStatic ||
                   placement == ExecutorKind::kSteal,
               "executor placement must be static or steal");
  RAMIEL_CHECK(!programs.empty(), "executor needs at least one program");
  try {
    std::lock_guard<std::mutex> lk(mu_);
    for (ExecutorProgram& p : programs) add_program_locked(std::move(p));
  } catch (...) {
    // A later program was rejected after an earlier one started workers:
    // join them, or their std::thread objects would end the process.
    stop_workers();
    throw;
  }
}

void ParallelExecutor::quiesce(std::unique_lock<std::mutex>& lk) {
  ++holds_;
  cv_.wait(lk, [&] { return in_flight_ == 0; });
}

void ParallelExecutor::resume(std::unique_lock<std::mutex>& lk) {
  --holds_;
  lk.unlock();
  cv_.notify_all();
}

int ParallelExecutor::add_program(const Graph* graph, Hyperclustering hc,
                                  const mem::MemPlan* mem_plan) {
  // With no run in flight and mu_ held, no worker reads the program table
  // or the lane list, so both can grow.
  std::unique_lock<std::mutex> lk(mu_);
  quiesce(lk);
  int id = -1;
  try {
    id = add_program_locked(ExecutorProgram{graph, std::move(hc), mem_plan});
  } catch (...) {
    resume(lk);
    throw;
  }
  resume(lk);
  return id;
}

int ParallelExecutor::add_program_locked(ExecutorProgram program) {
  RAMIEL_CHECK(program.graph != nullptr, "graph must not be null");
  RAMIEL_CHECK(!program.hc.workers.empty(), "hyperclustering has no workers");
  RAMIEL_CHECK(program.hc.batch >= 1, "hyperclustering batch must be >= 1");

  auto prog = std::make_unique<Program>();
  prog->graph = program.graph;
  prog->hc = std::move(program.hc);
  const Graph& g = *prog->graph;
  const int k = prog->workers();
  const int batch = prog->hc.batch;
  const int id = static_cast<int>(programs_.size());
  const bool planned =
      program.mem_plan != nullptr && !program.mem_plan->empty();
  prog->tg = steal::build_task_graph(g, prog->hc, /*chain_streams=*/planned);
  const steal::TaskGraph& tg = prog->tg;

  // Task ids are worker-major in hypercluster order, so appending them
  // splits each worker's interleaved list into per-sample streams.
  prog->streams.assign(static_cast<std::size_t>(k),
                       std::vector<std::vector<std::int32_t>>(
                           static_cast<std::size_t>(batch)));
  for (std::size_t t = 0; t < tg.size(); ++t) {
    const steal::StealTask& task = tg.tasks[t];
    prog->streams[static_cast<std::size_t>(task.home)]
                 [static_cast<std::size_t>(task.sample)]
                     .push_back(static_cast<std::int32_t>(t));
  }
  prog->seeds.resize(static_cast<std::size_t>(k));
  prog->tasks_below.assign(static_cast<std::size_t>(batch) + 1, 0);
  prog->seeds_from.assign(static_cast<std::size_t>(batch) + 1, 0);
  for (const steal::StealTask& task : tg.tasks) {
    ++prog->tasks_below[static_cast<std::size_t>(task.sample) + 1];
  }
  for (std::int32_t seed : tg.seeds) {
    const steal::StealTask& task = tg.tasks[static_cast<std::size_t>(seed)];
    prog->seeds[static_cast<std::size_t>(task.home)].push_back(seed);
    ++prog->seeds_from[static_cast<std::size_t>(task.sample)];
  }
  // Per-sample counts so far; prefix sums from below and from above.
  std::partial_sum(prog->tasks_below.begin(), prog->tasks_below.end(),
                   prog->tasks_below.begin());
  std::partial_sum(prog->seeds_from.rbegin(), prog->seeds_from.rend(),
                   prog->seeds_from.rbegin());

  // Cross-home data edges, deduplicated per (value, sample, home); the
  // smallest consumer id is the first consumer in that home's stream.
  std::map<std::tuple<ValueId, int, int>, std::size_t> edge_of;
  for (std::size_t t = 0; t < tg.size(); ++t) {
    const steal::StealTask& src = tg.tasks[t];
    for (std::int32_t i = tg.succ_begin[t]; i < tg.succ_begin[t + 1]; ++i) {
      const std::int32_t u = tg.succ[static_cast<std::size_t>(i)];
      const steal::StealTask& dst = tg.tasks[static_cast<std::size_t>(u)];
      if (dst.home == src.home) continue;
      const std::vector<ValueId>& reads = g.node(dst.node).inputs;
      for (ValueId ov : g.node(src.node).outputs) {
        if (std::find(reads.begin(), reads.end(), ov) == reads.end()) continue;
        auto [it, fresh] = edge_of.try_emplace({ov, src.sample, dst.home},
                                               prog->cross_edges.size());
        if (fresh) {
          prog->cross_edges.push_back(
              {static_cast<std::int32_t>(t), u, ov});
        } else {
          std::int32_t& first = prog->cross_edges[it->second].consumer;
          first = std::min(first, u);
        }
      }
    }
  }

  if (planned) {
    RAMIEL_CHECK(static_cast<int>(program.mem_plan->workers.size()) == k,
                 "memory plan was computed for a different hyperclustering");
    prog->plan = *program.mem_plan;
    prog->slots = rt::planned_slots(g, prog->plan);
    prog->task_slots.assign(tg.size(), nullptr);
    for (std::size_t t = 0; t < tg.size(); ++t) {
      const steal::StealTask& task = tg.tasks[t];
      const auto& table = prog->slots[static_cast<std::size_t>(task.home)]
                                     [static_cast<std::size_t>(task.sample)];
      auto it = table.find(task.node);
      if (it != table.end()) prog->task_slots[t] = &it->second;
    }
    for (int w = 0; w < k; ++w) {
      const mem::WorkerPlan& wp =
          prog->plan.workers[static_cast<std::size_t>(w)];
      obs::registry()
          .gauge("ramiel_mem_planned_peak_bytes",
                 "Planned arena capacity for a worker's streams",
                 {{"program", std::to_string(id)},
                  {"worker", std::to_string(w)}})
          ->set(static_cast<double>(wp.arena_bytes));
      obs::registry()
          .gauge("ramiel_mem_naive_bytes",
                 "Per-run fresh-allocation bytes the plan replaces",
                 {{"program", std::to_string(id)},
                  {"worker", std::to_string(w)}})
          ->set(static_cast<double>(wp.naive_bytes));
    }
  }

  programs_.push_back(std::move(prog));
  ensure_threads(k);
  return id;
}

void ParallelExecutor::ensure_threads(int count) {
  // Called with mu_ held. Lanes are heap-allocated so existing ones never
  // move while the pool widens; a new worker copies the lane list under
  // mu_ before it touches any lane.
  const int have = static_cast<int>(threads_.size());
  for (int w = have; w < count; ++w) {
    lanes_.push_back(std::make_unique<Lane>());
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

void ParallelExecutor::remove_program(int program) {
  std::unique_lock<std::mutex> lk(mu_);
  Program& prog = program_at(program);
  quiesce(lk);
  prog.live = false;
  // Free the retired model's memory; the task graph and the run slots stay
  // (cheap) so ids, diagnostics and workers' stale copies of the in-flight
  // list stay valid.
  for (auto& run : prog.runs) run->arenas.clear();
  prog.task_slots.clear();
  prog.slots.clear();
  prog.plan = mem::MemPlan{};
  resume(lk);
}

ParallelExecutor::Program& ParallelExecutor::program_at(
    int program) const {
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  return *programs_[static_cast<std::size_t>(program)];
}

// The accessors lock mu_: add_program may grow the program table under a
// concurrent caller. Programs themselves never move.
int ParallelExecutor::num_programs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(programs_.size());
}

int ParallelExecutor::program_workers(int program) const {
  std::lock_guard<std::mutex> lk(mu_);
  return program_at(program).workers();
}

int ParallelExecutor::program_batch(int program) const {
  std::lock_guard<std::mutex> lk(mu_);
  return program_at(program).hc.batch;
}

const Hyperclustering& ParallelExecutor::program_hyperclusters(
    int program) const {
  std::lock_guard<std::mutex> lk(mu_);
  return program_at(program).hc;
}

bool ParallelExecutor::mem_plan_enabled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !program_at(0).plan.empty();
}

const steal::TaskGraph& ParallelExecutor::task_graph() const {
  std::lock_guard<std::mutex> lk(mu_);
  return program_at(0).tg;
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return in_flight_ == 0; });
  }
  stop_workers();
}

void ParallelExecutor::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    active_gen_.fetch_add(1, std::memory_order_release);
    for (auto& lane : lanes_) lane->bell.ring();
  }
  for (std::thread& t : threads_) t.join();
}

std::uint64_t ParallelExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return runs_completed_;
}

std::size_t ParallelExecutor::arena_bytes_allocated() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t total = 0;
  for (const auto& prog : programs_) {
    for (const auto& run : prog->runs) {
      for (const mem::MemArena& a : run->arenas) total += a.capacity_bytes();
    }
  }
  return total;
}

int ParallelExecutor::run_slots(int program) const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(program_at(program).runs.size());
}

std::vector<std::pair<const float*, std::size_t>>
ParallelExecutor::run_slot_arenas(int program) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<const float*, std::size_t>> spans;
  for (const auto& run : program_at(program).runs) {
    for (mem::MemArena& a : run->arenas) {
      if (a.capacity_bytes() > 0) {
        spans.emplace_back(a.data(), a.capacity_bytes());
      }
    }
  }
  return spans;
}

std::vector<TensorMap> ParallelExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) {
  return run_program(0, batch_inputs, options, profile);
}

std::vector<TensorMap> ParallelExecutor::run_program(
    int program, const std::vector<TensorMap>& batch_inputs,
    const RunOptions& options, Profile* profile) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::vector<TensorMap> outputs;
    std::exception_ptr error;
  } w;
  start_run(program, {}, &batch_inputs, options,
            [&w, profile](std::vector<TensorMap> outputs,
                          std::exception_ptr error, Profile p) {
              // Notify under the lock: `w` dies as soon as the caller sees
              // done.
              std::lock_guard<std::mutex> lk(w.mu);
              w.outputs = std::move(outputs);
              w.error = error;
              if (profile != nullptr) *profile = std::move(p);
              w.done = true;
              w.cv.notify_one();
            });
  std::unique_lock<std::mutex> lk(w.mu);
  w.cv.wait(lk, [&] { return w.done; });
  if (w.error) std::rethrow_exception(w.error);
  return std::move(w.outputs);
}

void ParallelExecutor::submit(int program, std::vector<TensorMap> batch_inputs,
                              const RunOptions& options, Completion done) {
  start_run(program, std::move(batch_inputs), nullptr, options,
            std::move(done));
}

void ParallelExecutor::start_run(int program, std::vector<TensorMap> owned,
                                 const std::vector<TensorMap>* inputs,
                                 const RunOptions& options, Completion done) {
  const std::vector<TensorMap>& batch_inputs =
      inputs != nullptr ? *inputs : owned;
  RunSlot* run = nullptr;
  std::size_t nthreads = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return holds_ == 0; });
    Program& prog = program_at(program);
    RAMIEL_CHECK(prog.live, str_cat("program ", program, " has been removed"));
    const int batch = prog.hc.batch;
    RAMIEL_CHECK(!batch_inputs.empty() &&
                     static_cast<int>(batch_inputs.size()) <= batch,
                 str_cat("batch size mismatch: executor compiled for batch ",
                         batch, " (hyperclustering) takes 1 to ", batch,
                         " samples, run() got ", batch_inputs.size(),
                         " sample", batch_inputs.size() == 1 ? "" : "s"));
    run = take_run_slot(prog);
    ++in_flight_;
    nthreads = lanes_.size();
  }

  // Until the publication below, the only worker that can reach the slot
  // is one whose copy of the in-flight list still holds it from its
  // previous run, and that one reads nothing but the run id (pinned) or
  // the seed cursors and the task count (steal).
  const Program& prog = *run->prog;
  const steal::TaskGraph& tg = prog.tg;
  for (std::size_t t = 0; t < tg.size(); ++t) {
    run->deps[t].store(tg.initial_deps[t], std::memory_order_relaxed);
  }
  const auto n = batch_inputs.size();
  run->samples.store(static_cast<int>(n), std::memory_order_release);
  const std::int64_t remaining =
      prog.tasks_below[n] +
      (placement_ == ExecutorKind::kSteal ? prog.seeds_from[n] : 0);
  run->remaining.store(remaining, std::memory_order_relaxed);
  run->abort.store(false, std::memory_order_relaxed);
  run->owned_inputs = std::move(owned);
  run->inputs = inputs != nullptr ? inputs : &run->owned_inputs;
  run->options = options;
  run->done = std::move(done);
  // Pinned tasks run on their home; stolen ones on any thread.
  const std::size_t width = placement_ == ExecutorKind::kSteal
                                ? nthreads
                                : static_cast<std::size_t>(prog.workers());
  run->wps.assign(width, WorkerProfile{});
  run->wevents.resize(width);
  for (auto& events : run->wevents) events.clear();
  run->task_ns.clear();
  if (options.trace && placement_ == ExecutorKind::kStatic) {
    run->task_ns.resize(tg.size());
  }
  run->start_ns = Stopwatch::now_ns();

  {
    std::lock_guard<std::mutex> lk(mu_);
    // The run id (pinned cursors) and the seed cursors (steal claims) are
    // released after every field above, so a worker that still holds this
    // slot in an old copy of the list and acquires either sees the whole
    // new run.
    run->run_id.store(++run_seq_, std::memory_order_release);
    for (int h = 0; h < prog.workers() && run->seed_next; ++h) {
      run->seed_next[static_cast<std::size_t>(h)].store(
          0, std::memory_order_release);
    }
    active_.push_back(run);
    active_gen_.fetch_add(1, std::memory_order_release);
    // Ring after publishing: a worker snapshots its epoch before it reads
    // active_gen_, so it either sees the run or wakes for it.
    for (int w = 0; w < prog.workers(); ++w) {
      lanes_[static_cast<std::size_t>(w)]->bell.ring();
    }
  }
  // No task will finish the run: complete it here.
  if (remaining == 0) finish_run(*run);
}

ParallelExecutor::RunSlot* ParallelExecutor::take_run_slot(Program& prog) {
  if (prog.free_runs.empty()) {
    // A new slot, sized once for its program. Only overlapping runs get
    // here: a caller that waits for each run reuses the first slot.
    auto slot = std::make_unique<RunSlot>();
    const int k = prog.workers();
    const std::size_t tasks = prog.tg.size();
    slot->prog = &prog;
    slot->deps = std::make_unique<std::atomic<std::int32_t>[]>(tasks);
    slot->values.resize(prog.graph->values().size() *
                        static_cast<std::size_t>(prog.hc.batch));
    if (!prog.plan.empty()) {
      slot->arenas = std::vector<mem::MemArena>(static_cast<std::size_t>(k));
      for (int w = 0; w < k; ++w) {
        slot->arenas[static_cast<std::size_t>(w)].ensure(
            static_cast<std::size_t>(
                prog.plan.workers[static_cast<std::size_t>(w)].arena_bytes));
      }
    }
    if (placement_ == ExecutorKind::kSteal) {
      slot->jobs.resize(tasks);
      for (std::size_t t = 0; t < tasks; ++t) {
        slot->jobs[t] = RunSlot::Job{slot.get(), static_cast<std::int32_t>(t)};
      }
      slot->seed_next = std::make_unique<std::atomic<std::int32_t>[]>(
          static_cast<std::size_t>(k));
    } else {
      slot->cursors.resize(static_cast<std::size_t>(k));
    }
    prog.free_runs.push_back(slot.get());
    prog.runs.push_back(std::move(slot));
  }
  RunSlot* run = prog.free_runs.back();
  prog.free_runs.pop_back();
  return run;
}

void ParallelExecutor::worker_loop(int me) {
  Worker w;
  w.me = me;
  // Copies the in-flight list and the lanes; false once shut down.
  const auto refresh = [&] {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) return false;
    w.gen = active_gen_.load(std::memory_order_relaxed);
    w.runs.clear();
    for (RunSlot* run : active_) {
      // A pinned worker only has streams in programs at least as wide as
      // its index; under stealing every worker helps every run.
      if (placement_ == ExecutorKind::kSteal || me < run->prog->workers()) {
        w.runs.push_back(run);
      }
    }
    w.lanes.clear();
    for (auto& lane : lanes_) w.lanes.push_back(lane.get());
    return true;
  };
  if (!refresh()) return;
  Lane& lane = *w.lanes[static_cast<std::size_t>(me)];
  w.sink.set_scratch_arena(&lane.scratch);

  while (true) {
    // Snapshot the epoch *before* reading active_gen_ and the dependency
    // counts: a ring that lands after the snapshot makes wait() return at
    // once, and one that landed before it publishes (via the acquire on the
    // epoch) the run or release that preceded it. The other order can sleep
    // forever.
    const std::uint64_t seen = lane.bell.epoch();
    if (active_gen_.load(std::memory_order_acquire) != w.gen && !refresh()) {
      return;
    }
    const Step step = placement_ == ExecutorKind::kSteal ? step_stealing(w)
                                                         : step_pinned(w);
    if (step == Step::kProgress) continue;
    if (step == Step::kIdle) {
      // No run in flight needs this worker: sleep until a run or a push
      // rings.
      (void)lane.bell.wait(seen);
      continue;
    }
    // Work is pending but none runnable. Pinned: sleep until another worker
    // releases one of ours. Steal: park, bounded, so a lost wakeup degrades
    // to one timeout.
    w.wait_ns += placement_ == ExecutorKind::kSteal
                     ? lane.bell.wait(seen, std::chrono::microseconds(200))
                     : lane.bell.wait(seen);
  }
}

// Pinned placement: each worker runs its (run, sample) streams
// cooperatively, oldest run first. The next task of a stream runs once its
// dependency count is zero; otherwise the worker advances whichever stream
// *is* runnable ("multiple inference samples in flight", §III-E) and only
// sleeps when no stream of any run can progress. Within a sample every
// stream is in topological order, so the globally earliest pending task of
// each run is always runnable on its worker — the schedule cannot deadlock,
// for plain or switched hyperclusters alike.
ParallelExecutor::Step ParallelExecutor::step_pinned(Worker& w) {
  Step step = Step::kIdle;
  const auto me = static_cast<std::size_t>(w.me);
  for (RunSlot* run : w.runs) {
    const std::uint64_t id = run->run_id.load(std::memory_order_acquire);
    if (id == 0) continue;  // finished; this copy of the list is stale
    const Program& prog = *run->prog;
    const auto& streams = prog.streams[me];
    const int batch = prog.hc.batch;
    RunSlot::Cursor& c = run->cursors[me];
    if (c.run != id) {
      // A short run can finish without this worker (it only has tasks of
      // samples the run does not carry) and its slot be refilled while a
      // stale copy of the list still shows the old id here. The sample
      // count read is the old run's only if the id is still current after
      // it: the refill stores its count after the slot's id went to 0.
      const int samples = run->samples.load(std::memory_order_acquire);
      if (run->run_id.load(std::memory_order_acquire) != id) continue;
      // Streams of samples the run does not carry start at their end.
      c.run = id;
      c.pos.resize(static_cast<std::size_t>(batch));
      c.left = 0;
      for (std::size_t s = 0; s < c.pos.size(); ++s) {
        const bool carried = static_cast<int>(s) < samples;
        c.pos[s] = carried ? 0 : streams[s].size();
        if (carried) c.left += streams[s].size();
      }
      c.prefer = 0;
    }
    // A run with none of this worker's tasks left cannot be reused under
    // it: the slot only frees once every task ran.
    if (c.left == 0) continue;
    step = Step::kBlocked;
    for (int off = 0; off < batch; ++off) {
      const auto s = static_cast<std::size_t>((c.prefer + off) % batch);
      if (c.pos[s] == streams[s].size()) continue;
      const std::int32_t t = streams[s][c.pos[s]];
      if (run->deps[t].load(std::memory_order_acquire) != 0) continue;
      // Advance before running: the task may finish the run and free the
      // slot.
      ++c.pos[s];
      --c.left;
      // Stay on the sample that just ran: consecutive ops of one sample
      // share hot activations, so switching only when a sample *blocks*
      // keeps the cache warm while still filling every receive slack (the
      // paper's §III-E interleave switches at op granularity; on few cores
      // that costs locality without buying extra overlap).
      c.prefer = static_cast<int>(s);
      run_task(w, *run, t, /*stolen=*/false);
      return Step::kProgress;
    }
  }
  return step;
}

// Steal placement: drain the own deque (LIFO), then claim the own home's
// seeds of the oldest run, then steal (FIFO, round robin over victims), then
// claim another home's seeds.
ParallelExecutor::Step ParallelExecutor::step_stealing(Worker& w) {
  const auto me = static_cast<std::size_t>(w.me);
  const RunSlot::Job* job = nullptr;
  if (w.lanes[me]->deque.pop(&job)) {
    run_task(w, *job->run, job->task, /*stolen=*/false);
    return Step::kProgress;
  }
  // Seeds are claimed through per-home cursors; a claimed seed counts as
  // stolen when it is homed elsewhere.
  const auto claim_seed = [&](bool own) {
    for (RunSlot* run : w.runs) {
      const int k = run->prog->workers();
      for (int i = 0; i < k; ++i) {
        const int home = (w.me + i) % k;
        if ((home == w.me) != own) continue;
        const auto& seeds = run->prog->seeds[static_cast<std::size_t>(home)];
        const auto size = static_cast<std::int32_t>(seeds.size());
        std::atomic<std::int32_t>& next =
            run->seed_next[static_cast<std::size_t>(home)];
        if (next.load(std::memory_order_acquire) >= size) continue;
        const std::int32_t n = next.fetch_add(1, std::memory_order_acq_rel);
        if (n >= size) continue;
        const std::int32_t t = seeds[static_cast<std::size_t>(n)];
        if (run->prog->tg.tasks[static_cast<std::size_t>(t)].sample >=
            run->samples.load(std::memory_order_relaxed)) {
          // A seed of a sample the run does not carry: only count it off.
          if (run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            finish_run(*run);
          }
          return true;
        }
        run_task(w, *run, t, !own);
        return true;
      }
    }
    return false;
  };
  if (claim_seed(/*own=*/true)) return Step::kProgress;
  const std::size_t n = w.lanes.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (w.lanes[(me + i) % n]->deque.steal(&job)) {
      run_task(w, *job->run, job->task, /*stolen=*/true);
      return Step::kProgress;
    }
  }
  if (claim_seed(/*own=*/false)) return Step::kProgress;

  bool pending = false;
  for (RunSlot* run : w.runs) {
    pending = pending || run->remaining.load(std::memory_order_acquire) > 0;
  }
  if (!pending) return Step::kIdle;
  // Nothing runnable anywhere we looked. Re-scan cheaply (a push may have
  // landed mid-scan) before parking.
  for (Lane* lane : w.lanes) {
    if (lane->deque.maybe_nonempty()) return Step::kProgress;
  }
  return Step::kBlocked;
}

void ParallelExecutor::run_task(Worker& w, RunSlot& run, std::int32_t t,
                                bool stolen) {
  const auto me = static_cast<std::size_t>(w.me);
  WorkerProfile& wp = run.wps[me];
  wp.recv_wait_ns += w.wait_ns;
  w.wait_ns = 0;
  if (stolen) ++wp.tasks_stolen;
  // After a failure the run's remaining tasks only drain: they release
  // their successors without running a kernel, so the run still completes
  // through its task count and no worker waits on a value never produced.
  if (!run.abort.load(std::memory_order_acquire)) {
    try {
      execute_task(w, run, t);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(run.error_mu);
        if (!run.first_error) run.first_error = std::current_exception();
      }
      run.abort.store(true, std::memory_order_release);
    }
  }
  ++wp.tasks;

  // Unlock the successors. The fetch_sub release sequence orders every
  // producer's value writes (and the abort flag) before the successor's
  // execution, whichever thread ends up running it. Steal: a zeroed
  // successor goes onto this worker's deque (its inputs are hot here).
  // Pinned: it belongs to its home worker, which is rung when that is
  // another worker.
  const steal::TaskGraph& tg = run.prog->tg;
  const bool stealing = placement_ == ExecutorKind::kSteal;
  int pushed = 0;
  for (std::int32_t i = tg.succ_begin[static_cast<std::size_t>(t)];
       i < tg.succ_begin[static_cast<std::size_t>(t) + 1]; ++i) {
    const std::int32_t succ = tg.succ[static_cast<std::size_t>(i)];
    const std::int32_t left =
        run.deps[succ].fetch_sub(1, std::memory_order_acq_rel);
    RAMIEL_CHECK(left >= 1, "dependency count underflow (task executed twice?)");
    if (left != 1) continue;
    if (stealing) {
      w.lanes[me]->deque.push(&run.jobs[static_cast<std::size_t>(succ)]);
      ++pushed;
    } else {
      const auto home = static_cast<std::size_t>(
          tg.tasks[static_cast<std::size_t>(succ)].home);
      if (home != me) w.lanes[home]->bell.ring();
    }
  }
  // One sleeping sibling per pushed task may come and steal it.
  for (std::size_t v = 0; v < w.lanes.size() && pushed > 0; ++v) {
    if (v != me && w.lanes[v]->bell.sleeping()) {
      w.lanes[v]->bell.ring();
      --pushed;
    }
  }
  if (run.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish_run(run);
  }
}

void ParallelExecutor::execute_task(Worker& w, RunSlot& run, std::int32_t t) {
  const Program& prog = *run.prog;
  const Graph& g = *prog.graph;
  const steal::StealTask& task = prog.tg.tasks[static_cast<std::size_t>(t)];
  const Node& n = g.node(task.node);
  // Constant nodes are no-ops (consumers read the payload off the value),
  // but still unlock their successors.
  if (n.kind == OpKind::kConstant) return;
  const int s = task.sample;
  const auto value_idx = [&](ValueId v) {
    return static_cast<std::size_t>(v) *
               static_cast<std::size_t>(prog.hc.batch) +
           static_cast<std::size_t>(s);
  };
  WorkerProfile& wp = run.wps[static_cast<std::size_t>(w.me)];

  const int width = std::max(1, run.options.intra_op_threads);
  if (width != w.ctx.threads) {
    w.pool.reset();
    w.ctx = OpContext{};
    if (width > 1) {
      w.pool = std::make_unique<ThreadPool>(width - 1);
      w.ctx.threads = width;
      w.ctx.pool = w.pool.get();
    }
  }

  std::vector<Tensor> inputs;
  inputs.reserve(n.inputs.size());
  for (ValueId v : n.inputs) {
    Tensor in;
    if (!fetch_static_input(g, v, (*run.inputs)[static_cast<std::size_t>(s)],
                            &in)) {
      // Produced by a predecessor task; the dependency count reaching zero
      // ordered that write before this read.
      in = run.values[value_idx(v)];
      RAMIEL_CHECK(in.numel() > 0 || g.value(v).shape.numel() == 0,
                   str_cat("value '", g.value(v).name,
                           "' not computed (dependency edge missing)"));
    }
    inputs.push_back(std::move(in));
  }

  const std::vector<rt::PlannedOut>* outs =
      prog.task_slots.empty() ? nullptr
                              : prog.task_slots[static_cast<std::size_t>(t)];
  float* const arena_base =
      outs != nullptr ? run.arenas[static_cast<std::size_t>(task.home)].data()
                      : nullptr;
  const std::int64_t t0 = Stopwatch::now_ns();
  std::vector<Tensor> outputs =
      rt::eval_planned(n, inputs, w.ctx, w.sink, arena_base, outs);
  const std::int64_t t1 = Stopwatch::now_ns();
  wp.busy_ns += t1 - t0;
  wp.allocs_avoided += w.sink.taken();
  if (run.options.trace) {
    run.wevents[static_cast<std::size_t>(w.me)].push_back(
        TaskEvent{task.node, s, w.me, t0, t1});
    if (!run.task_ns.empty()) run.task_ns[static_cast<std::size_t>(t)] = {t0, t1};
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    run.values[value_idx(n.outputs[i])] = std::move(outputs[i]);
  }
}

// Runs on the thread that finished the run's last task: every other task's
// writes are ordered before it by the remaining-count release sequence.
void ParallelExecutor::finish_run(RunSlot& run) {
  Program& prog = *run.prog;
  const Graph& g = *prog.graph;
  const int batch = prog.hc.batch;
  const int samples = run.samples.load(std::memory_order_relaxed);
  const std::int64_t end_ns = Stopwatch::now_ns();
  const double wall_ms = static_cast<double>(end_ns - run.start_ns) / 1e6;
  std::exception_ptr error = run.first_error;
  std::vector<TensorMap> results;
  Profile profile;
  if (!error) {
    try {
      // Collect graph outputs. Arena-backed tensors must not outlive the
      // run (the slot's next run rewrites them) — detach them here.
      results.resize(static_cast<std::size_t>(samples));
      for (int s = 0; s < samples; ++s) {
        const auto su = static_cast<std::size_t>(s);
        collect_static_outputs(g, (*run.inputs)[su], &results[su]);
        for (ValueId ov : g.outputs()) {
          const Value& val = g.value(ov);
          if (val.is_constant() || val.producer == kNoNode ||
              g.node(val.producer).dead) {
            continue;  // collected statically above
          }
          const Tensor& produced =
              run.values[static_cast<std::size_t>(ov) *
                             static_cast<std::size_t>(batch) +
                         su];
          results[su].emplace(
              val.name, produced.owns_storage() ? produced : produced.clone());
        }
      }
      tally_messages(run, profile);
      record_run_metrics(run.wps, wall_ms);
      profile.wall_ms = wall_ms;
      profile.start_ns = run.start_ns;
      profile.end_ns = end_ns;
      for (const auto& events : run.wevents) {
        profile.events.insert(profile.events.end(), events.begin(),
                              events.end());
      }
      profile.workers = run.wps;
    } catch (...) {
      error = std::current_exception();
      results.clear();
    }
  }
  std::fill(run.values.begin(), run.values.end(), Tensor());
  run.owned_inputs.clear();
  run.inputs = nullptr;
  run.first_error = nullptr;
  Completion done = std::move(run.done);
  run.done = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_.erase(std::find(active_.begin(), active_.end(), &run));
    active_gen_.fetch_add(1, std::memory_order_release);
    run.run_id.store(0, std::memory_order_relaxed);
    prog.free_runs.push_back(&run);
    ++runs_completed_;
  }
  done(std::move(results), error, std::move(profile));
  done = nullptr;  // the completion's captures go before the drain count
  {
    std::lock_guard<std::mutex> lk(mu_);
    --in_flight_;
  }
  cv_.notify_all();
}

// Pinned placement: the cross-home edges are the paper's queue messages.
// Their counts and bytes are tallied here, after the run, from the value
// table; with tracing, each edge also becomes a MessageEvent (send = the
// producer's end, receive = the first consumer's start on the other home)
// and every send/receive a QueueDepthSample of the receiving worker's
// sent-but-unconsumed count. The steal placement has no messages.
void ParallelExecutor::tally_messages(RunSlot& run, Profile& profile) {
  if (placement_ != ExecutorKind::kStatic) return;
  const Program& prog = *run.prog;
  const steal::TaskGraph& tg = prog.tg;
  const int samples = run.samples.load(std::memory_order_relaxed);
  const bool trace = !run.task_ns.empty();
  // (receiving worker, stamp, 0 = send / 1 = receive)
  std::vector<std::tuple<int, std::int64_t, int>> depth_events;
  for (const Program::CrossEdge& e : prog.cross_edges) {
    const steal::StealTask& src = tg.tasks[static_cast<std::size_t>(e.producer)];
    if (src.sample >= samples) continue;  // a sample the run did not carry
    const steal::StealTask& dst = tg.tasks[static_cast<std::size_t>(e.consumer)];
    const std::int64_t bytes =
        run.values[static_cast<std::size_t>(e.value) *
                       static_cast<std::size_t>(prog.hc.batch) +
                   static_cast<std::size_t>(src.sample)]
            .byte_size();
    WorkerProfile& from = run.wps[static_cast<std::size_t>(src.home)];
    ++from.messages_sent;
    from.bytes_sent += bytes;
    run.wps[static_cast<std::size_t>(dst.home)].bytes_received += bytes;
    if (!trace) continue;
    const std::int64_t send_ns =
        run.task_ns[static_cast<std::size_t>(e.producer)].second;
    const std::int64_t recv_ns =
        run.task_ns[static_cast<std::size_t>(e.consumer)].first;
    profile.messages.push_back(MessageEvent{e.value, src.sample, src.home,
                                            dst.home, send_ns, recv_ns,
                                            bytes});
    depth_events.emplace_back(dst.home, send_ns, 0);
    depth_events.emplace_back(dst.home, recv_ns, 1);
  }
  if (!trace) return;
  // Per receiving worker in time order; at equal stamps the send counts
  // first, so the depth never dips below zero.
  std::sort(depth_events.begin(), depth_events.end());
  int worker = -1, depth = 0;
  for (const auto& [w, ts, recv] : depth_events) {
    if (w != worker) {
      worker = w;
      depth = 0;
    }
    depth += recv != 0 ? -1 : 1;
    profile.queue_depths.push_back(QueueDepthSample{w, ts, depth});
  }
}

}  // namespace ramiel

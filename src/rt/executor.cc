#include "rt/executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
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
/// message edges, and its memory plan with the per-home arenas.
struct ParallelExecutor::Program {
  const Graph* graph = nullptr;
  Hyperclustering hc;
  steal::TaskGraph tg;
  /// streams[home][sample] = that home's task ids for the sample, in the
  /// cluster's topological order (the order the pinned placement walks).
  std::vector<std::vector<std::vector<std::int32_t>>> streams;
  /// One per (value, sample, consuming home != producing home): the
  /// producer task and the first consuming task in that home's stream —
  /// the pinned placement's messages.
  struct CrossEdge {
    std::int32_t producer;
    std::int32_t consumer;
    ValueId value;
  };
  std::vector<CrossEdge> cross_edges;
  /// Static memory plan (empty = disabled), its arenas (one per home) and
  /// each task's planned outputs (null = none; points into `slots`).
  mem::MemPlan plan;
  std::vector<mem::MemArena> arenas;
  rt::PlannedSlots slots;
  std::vector<const std::vector<rt::PlannedOut>*> task_slots;
  bool live = true;
  int workers() const { return static_cast<int>(hc.workers.size()); }
};

/// Per worker thread: its steal deque, its doorbell (pinned placement) and
/// the scratch arena its kernels' pack/im2col buffers come from.
struct ParallelExecutor::Lane {
  steal::WorkDeque deque;
  rt::Doorbell bell;
  mem::MemArena scratch;
};

/// Everything one run shares with the workers. Lives on run_program()'s
/// stack; workers only touch it between the start and done handshakes.
struct ParallelExecutor::RunState {
  Program* prog = nullptr;
  const std::vector<TensorMap>* batch_inputs = nullptr;
  RunOptions options;
  std::vector<WorkerProfile> wps;
  std::vector<std::vector<TaskEvent>> wevents;
  /// Pinned placement with tracing: [start, end] of every task, from which
  /// the message events are synthesised after the run.
  std::vector<std::pair<std::int64_t, std::int64_t>> task_ns;
  std::exception_ptr first_error;
  std::mutex error_mu;
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
  std::lock_guard<std::mutex> run_lock(run_mu_);
  for (ExecutorProgram& p : programs) add_program_locked(std::move(p));
}

int ParallelExecutor::add_program(const Graph* graph, Hyperclustering hc,
                                  const mem::MemPlan* mem_plan) {
  // run_mu_ keeps every worker parked (no run can be in flight), so the
  // program table, the live state and the thread pool can grow safely.
  std::lock_guard<std::mutex> run_lock(run_mu_);
  return add_program_locked(ExecutorProgram{graph, std::move(hc), mem_plan});
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
    prog->arenas = std::vector<mem::MemArena>(static_cast<std::size_t>(k));
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

  if (tg.size() > deps_capacity_) {
    deps_capacity_ = tg.size();
    deps_ = std::make_unique<std::atomic<std::int32_t>[]>(deps_capacity_);
  }
  values_.resize(std::max(values_.size(),
                          g.values().size() * static_cast<std::size_t>(batch)));
  programs_.push_back(std::move(prog));
  ensure_threads(k);
  return id;
}

void ParallelExecutor::ensure_threads(int count) {
  // Called with run_mu_ held. Lanes are heap-allocated so existing ones
  // never move while the pool widens.
  const int have = static_cast<int>(threads_.size());
  if (have >= count) return;
  for (int w = have; w < count; ++w) lanes_.push_back(std::make_unique<Lane>());
  for (int w = have; w < count; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  // Wait until every new thread captured its initial run_seq_: a thread
  // that read the counter after the next run bumped it would miss that run
  // and the dispatch would hang short of workers_done_ == thread count.
  std::unique_lock<std::mutex> lk(ctl_mu_);
  done_cv_.wait(lk, [&] {
    return workers_ready_ == static_cast<int>(threads_.size());
  });
}

void ParallelExecutor::remove_program(int program) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  Program& prog = *programs_[static_cast<std::size_t>(program)];
  prog.live = false;
  // Free the retired model's memory; the task graph stays (cheap) so ids
  // and diagnostics remain stable.
  prog.arenas.clear();
  prog.task_slots.clear();
  prog.slots.clear();
  prog.plan = mem::MemPlan{};
}

int ParallelExecutor::num_programs() const {
  return static_cast<int>(programs_.size());
}

int ParallelExecutor::program_workers(int program) const {
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  return programs_[static_cast<std::size_t>(program)]->workers();
}

int ParallelExecutor::program_batch(int program) const {
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  return programs_[static_cast<std::size_t>(program)]->hc.batch;
}

bool ParallelExecutor::mem_plan_enabled() const {
  return !programs_.front()->plan.empty();
}

const steal::TaskGraph& ParallelExecutor::task_graph() const {
  return programs_.front()->tg;
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::uint64_t ParallelExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lk(ctl_mu_);
  return runs_completed_;
}

std::size_t ParallelExecutor::arena_bytes_allocated() const {
  std::size_t total = 0;
  for (const auto& prog : programs_) {
    for (const mem::MemArena& a : prog->arenas) total += a.capacity_bytes();
  }
  return total;
}

void ParallelExecutor::ring_all() {
  for (auto& lane : lanes_) lane->bell.ring();
}

void ParallelExecutor::worker_loop(int me) {
  // Persistent per-worker intra-op pool: built on the first run that wants
  // one, rebuilt only when the requested width changes (steady-state serving
  // uses one width, so this is a one-time cost).
  std::unique_ptr<ThreadPool> pool;
  int pool_threads = 1;
  mem::SlotSink sink;
  sink.set_scratch_arena(&lanes_[static_cast<std::size_t>(me)]->scratch);
  std::vector<std::size_t> cursor;
  std::uint64_t seen;
  {
    // Capture the run counter under the lock before reporting ready:
    // ensure_threads() holds back until every new thread has done this, so
    // no dispatch can slip past an unsynchronized-yet worker.
    std::lock_guard<std::mutex> lk(ctl_mu_);
    seen = run_seq_;
    ++workers_ready_;
  }
  done_cv_.notify_all();

  while (true) {
    RunState* st = nullptr;
    {
      std::unique_lock<std::mutex> lk(ctl_mu_);
      start_cv_.wait(lk, [&] { return shutdown_ || run_seq_ != seen; });
      if (shutdown_) return;
      seen = run_seq_;
      st = state_;
    }

    // Threads beyond this program's width sit the run out (the pool is
    // sized to the widest hosted program) but still check in below so the
    // dispatcher's workers_done_ target stays thread-count based.
    if (me < st->prog->workers()) {
      if (st->options.intra_op_threads != pool_threads) {
        pool.reset();
        if (st->options.intra_op_threads > 1) {
          pool =
              std::make_unique<ThreadPool>(st->options.intra_op_threads - 1);
        }
        pool_threads = st->options.intra_op_threads;
      }
      OpContext ctx;
      if (pool_threads > 1) {
        ctx.threads = pool_threads;
        ctx.pool = pool.get();
      }

      try {
        if (placement_ == ExecutorKind::kSteal) {
          run_stealing(me, *st, ctx, sink);
        } else {
          run_pinned(me, *st, ctx, sink, cursor);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(st->error_mu);
          if (!st->first_error) st->first_error = std::current_exception();
        }
        // Unblock every sibling so the run unwinds instead of deadlocking.
        abort_.store(true, std::memory_order_release);
        ring_all();
      }
    }

    {
      std::lock_guard<std::mutex> lk(ctl_mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

// Pinned placement: each worker runs its per-sample streams cooperatively.
// The next task of the preferred stream runs once its dependency count is
// zero; otherwise the worker advances whichever sample *is* runnable
// ("multiple inference samples in flight", §III-E) and only sleeps when no
// stream can progress. Within a sample every stream is in topological
// order, so the globally earliest pending task is always runnable on its
// worker — the schedule cannot deadlock, for plain or switched
// hyperclusters alike.
void ParallelExecutor::run_pinned(int me, RunState& st, const OpContext& ctx,
                                  mem::SlotSink& sink,
                                  std::vector<std::size_t>& cursor) {
  const Program& prog = *st.prog;
  const auto& streams = prog.streams[static_cast<std::size_t>(me)];
  const int batch = prog.hc.batch;
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  rt::Doorbell& bell = lanes_[static_cast<std::size_t>(me)]->bell;
  cursor.assign(static_cast<std::size_t>(batch), 0);
  std::size_t left = prog.hc.workers[static_cast<std::size_t>(me)].size();

  int prefer = 0;
  while (left > 0) {
    // Snapshot the epoch *before* reading abort_ and the dependency counts:
    // a ring that lands after the snapshot makes wait() return at once, and
    // one that landed before it publishes (via the acquire on the epoch) the
    // release or abort that preceded it. The other order can sleep forever.
    const std::uint64_t seen = bell.epoch();
    if (abort_.load(std::memory_order_acquire)) return;
    bool progressed = false;
    for (int off = 0; off < batch; ++off) {
      const int s = (prefer + off) % batch;
      const auto su = static_cast<std::size_t>(s);
      if (cursor[su] == streams[su].size()) continue;
      const std::int32_t t = streams[su][cursor[su]];
      if (deps_[t].load(std::memory_order_acquire) != 0) continue;
      execute_task(me, t, /*stolen=*/false, st, ctx, sink);
      ++cursor[su];
      --left;
      progressed = true;
      // Stay on the sample that just ran: consecutive ops of one sample
      // share hot activations, so switching only when a sample *blocks*
      // keeps the cache warm while still filling every receive slack
      // (the paper's §III-E interleave switches at op granularity; on few
      // cores that costs locality without buying extra overlap).
      prefer = s;
      break;
    }
    // Nothing runnable: sleep until another worker releases one of ours.
    if (!progressed) wp.recv_wait_ns += bell.wait(seen);
  }
}

// Steal placement: drain the own deque (LIFO), then steal (FIFO, round
// robin over victims), then park on the own doorbell until new work is
// pushed or the run ends. Parks are bounded so a lost wakeup degrades to one
// timeout.
void ParallelExecutor::run_stealing(int me, RunState& st, const OpContext& ctx,
                                    mem::SlotSink& sink) {
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  Lane& lane = *lanes_[static_cast<std::size_t>(me)];
  const int k = st.prog->workers();

  while (true) {
    // Snapshot before reading abort_/remaining_, as in run_pinned: the abort
    // and the last task ring every bell after publishing themselves.
    const std::uint64_t seen = lane.bell.epoch();
    if (abort_.load(std::memory_order_acquire)) return;

    std::int32_t task;
    if (lane.deque.pop(&task)) {
      execute_task(me, task, /*stolen=*/false, st, ctx, sink);
      continue;
    }
    bool got = false;
    for (int i = 1; i < k && !got; ++i) {
      got = lanes_[static_cast<std::size_t>((me + i) % k)]->deque.steal(&task);
    }
    if (got) {
      execute_task(me, task, /*stolen=*/true, st, ctx, sink);
      continue;
    }

    if (remaining_.load(std::memory_order_acquire) == 0) return;

    // Nothing runnable anywhere we looked. Re-scan cheaply (a push may have
    // landed mid-scan), then park.
    bool maybe = false;
    for (int w = 0; w < k && !maybe; ++w) {
      maybe = lanes_[static_cast<std::size_t>(w)]->deque.maybe_nonempty();
    }
    if (maybe) continue;
    wp.recv_wait_ns += lane.bell.wait(seen, std::chrono::microseconds(200));
  }
}

void ParallelExecutor::execute_task(int me, std::int32_t t, bool stolen,
                                    RunState& st, const OpContext& ctx,
                                    mem::SlotSink& sink) {
  Program& prog = *st.prog;
  const Graph& g = *prog.graph;
  const steal::TaskGraph& tg = prog.tg;
  const steal::StealTask& task = tg.tasks[static_cast<std::size_t>(t)];
  const Node& n = g.node(task.node);
  const int s = task.sample;
  const auto value_idx = [&](ValueId v) {
    return static_cast<std::size_t>(v) *
               static_cast<std::size_t>(prog.hc.batch) +
           static_cast<std::size_t>(s);
  };
  WorkerProfile& wp = st.wps[static_cast<std::size_t>(me)];
  if (stolen) ++wp.tasks_stolen;

  // Constant nodes are no-ops (consumers read the payload off the value),
  // but still unlock their successors below.
  if (n.kind != OpKind::kConstant) {
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (ValueId v : n.inputs) {
      Tensor in;
      if (!fetch_static_input(
              g, v, (*st.batch_inputs)[static_cast<std::size_t>(s)], &in)) {
        // Produced by a predecessor task; the dependency count reaching
        // zero ordered that write before this read.
        in = values_[value_idx(v)];
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
        outs != nullptr
            ? prog.arenas[static_cast<std::size_t>(task.home)].data()
            : nullptr;
    const std::int64_t t0 = Stopwatch::now_ns();
    std::vector<Tensor> outputs =
        rt::eval_planned(n, inputs, ctx, sink, arena_base, outs);
    const std::int64_t t1 = Stopwatch::now_ns();
    wp.busy_ns += t1 - t0;
    wp.allocs_avoided += sink.taken();
    if (st.options.trace) {
      st.wevents[static_cast<std::size_t>(me)].push_back(
          TaskEvent{task.node, s, me, t0, t1});
      if (!st.task_ns.empty()) st.task_ns[static_cast<std::size_t>(t)] = {t0, t1};
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      values_[value_idx(n.outputs[i])] = std::move(outputs[i]);
    }
  }
  ++wp.tasks;

  // Publish, then unlock. The fetch_sub release sequence orders every
  // producer's value writes before the successor's execution, whichever
  // thread ends up running it. Steal: a zeroed successor goes onto this
  // worker's deque (its inputs are hot here). Pinned: it belongs to its
  // home worker, which is rung when that is another worker.
  const bool stealing = placement_ == ExecutorKind::kSteal;
  int pushed = 0;
  for (std::int32_t i = tg.succ_begin[static_cast<std::size_t>(t)];
       i < tg.succ_begin[static_cast<std::size_t>(t) + 1]; ++i) {
    const std::int32_t succ = tg.succ[static_cast<std::size_t>(i)];
    const std::int32_t left =
        deps_[succ].fetch_sub(1, std::memory_order_acq_rel);
    RAMIEL_CHECK(left >= 1, "dependency count underflow (task executed twice?)");
    if (left != 1) continue;
    if (stealing) {
      lanes_[static_cast<std::size_t>(me)]->deque.push(succ);
      ++pushed;
    } else {
      const int home = tg.tasks[static_cast<std::size_t>(succ)].home;
      if (home != me) lanes_[static_cast<std::size_t>(home)]->bell.ring();
    }
  }
  if (!stealing) return;
  // One sleeping sibling per pushed task may come and steal it.
  for (std::size_t w = 0; w < lanes_.size() && pushed > 0; ++w) {
    if (w != static_cast<std::size_t>(me) && lanes_[w]->bell.sleeping()) {
      lanes_[w]->bell.ring();
      --pushed;
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ring_all();  // last task: wake every parked sibling so they exit
  }
}

std::vector<TensorMap> ParallelExecutor::run(
    const std::vector<TensorMap>& batch_inputs, const RunOptions& options,
    Profile* profile) {
  return run_program(0, batch_inputs, options, profile);
}

std::vector<TensorMap> ParallelExecutor::run_program(
    int program, const std::vector<TensorMap>& batch_inputs,
    const RunOptions& options, Profile* profile) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  RAMIEL_CHECK(program >= 0 && program < static_cast<int>(programs_.size()),
               "no such program");
  Program& prog = *programs_[static_cast<std::size_t>(program)];
  RAMIEL_CHECK(prog.live,
               str_cat("program ", program, " has been removed"));
  const Graph& g = *prog.graph;
  const int batch = prog.hc.batch;
  RAMIEL_CHECK(static_cast<int>(batch_inputs.size()) == batch,
               str_cat("batch size mismatch: executor compiled for batch ",
                       batch, " (hyperclustering), run() got ",
                       batch_inputs.size(), " sample",
                       batch_inputs.size() == 1 ? "" : "s"));
  const int k = prog.workers();
  const steal::TaskGraph& tg = prog.tg;
  // add_program (the only thing that grows the pool) also takes run_mu_,
  // so the thread count is stable for the whole dispatch.
  const int nthreads = static_cast<int>(threads_.size());

  // Every worker is parked, so the scheduling state can be reset without
  // racing; the ctl_mu_ handshake below publishes it to the workers. This
  // also clears whatever a failed previous run left behind.
  for (std::size_t t = 0; t < tg.size(); ++t) {
    deps_[t].store(tg.initial_deps[t], std::memory_order_relaxed);
  }
  abort_.store(false, std::memory_order_relaxed);
  if (placement_ == ExecutorKind::kSteal) {
    for (auto& lane : lanes_) lane->deque.reset_capacity(tg.size());
    remaining_.store(static_cast<std::int64_t>(tg.size()),
                     std::memory_order_relaxed);
    for (std::int32_t seed : tg.seeds) {
      lanes_[static_cast<std::size_t>(
                 tg.tasks[static_cast<std::size_t>(seed)].home)]
          ->deque.push(seed);
    }
  }

  // Size the arenas while no tensor can point into them (same parked-worker
  // argument).
  if (!prog.plan.empty()) {
    std::uint64_t grows = 0;
    for (int w = 0; w < k; ++w) {
      if (prog.arenas[static_cast<std::size_t>(w)].ensure(
              static_cast<std::size_t>(
                  prog.plan.workers[static_cast<std::size_t>(w)]
                      .arena_bytes))) {
        ++grows;
      }
    }
    if (grows > 0) rt_metrics().arena_grows->inc(grows);
  }

  RunState st;
  st.prog = &prog;
  st.batch_inputs = &batch_inputs;
  st.options = options;
  st.wps.resize(static_cast<std::size_t>(k));
  st.wevents.resize(static_cast<std::size_t>(k));
  if (options.trace && placement_ == ExecutorKind::kStatic) {
    st.task_ns.resize(tg.size());
  }

  Stopwatch wall;
  const std::int64_t run_t0 = Stopwatch::now_ns();
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    state_ = &st;
    workers_done_ = 0;
    ++run_seq_;
  }
  start_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(ctl_mu_);
    done_cv_.wait(lk, [&] { return workers_done_ == nthreads; });
    state_ = nullptr;
    ++runs_completed_;
  }
  const std::int64_t run_t1 = Stopwatch::now_ns();
  const double wall_ms = wall.millis();

  const std::size_t used = g.values().size() * static_cast<std::size_t>(batch);
  if (st.first_error) {
    // Drop arena-backed leftovers before the next run may resize arenas.
    std::fill(values_.begin(), values_.begin() + used, Tensor());
    std::rethrow_exception(st.first_error);
  }

  // Collect graph outputs. Arena-backed tensors must not outlive the run
  // (their slots are rewritten by the next one) — detach them here.
  std::vector<TensorMap> results(static_cast<std::size_t>(batch));
  for (int s = 0; s < batch; ++s) {
    collect_static_outputs(g, batch_inputs[static_cast<std::size_t>(s)],
                           &results[static_cast<std::size_t>(s)]);
    for (ValueId ov : g.outputs()) {
      const Value& val = g.value(ov);
      if (val.is_constant() || val.producer == kNoNode ||
          g.node(val.producer).dead) {
        continue;  // collected statically above
      }
      const Tensor& produced =
          values_[static_cast<std::size_t>(ov) *
                      static_cast<std::size_t>(batch) +
                  static_cast<std::size_t>(s)];
      results[static_cast<std::size_t>(s)].emplace(
          val.name, produced.owns_storage() ? produced : produced.clone());
    }
  }

  tally_messages(prog, st, profile);
  std::fill(values_.begin(), values_.begin() + used, Tensor());
  record_run_metrics(st.wps, wall_ms);
  if (profile != nullptr) {
    profile->wall_ms = wall_ms;
    profile->start_ns = run_t0;
    profile->end_ns = run_t1;
    profile->events.clear();
    for (auto& ev : st.wevents) {
      profile->events.insert(profile->events.end(), ev.begin(), ev.end());
    }
    profile->workers = std::move(st.wps);
  }
  return results;
}

// Pinned placement: the cross-home edges are the paper's queue messages.
// Their counts and bytes are tallied here, after the run, from the value
// table; with tracing, each edge also becomes a MessageEvent (send = the
// producer's end, receive = the first consumer's start on the other home)
// and every send/receive a QueueDepthSample of the receiving worker's
// sent-but-unconsumed count. The steal placement has no messages.
void ParallelExecutor::tally_messages(const Program& prog, RunState& st,
                                      Profile* profile) {
  if (profile != nullptr) {
    profile->messages.clear();
    profile->queue_depths.clear();
  }
  if (placement_ != ExecutorKind::kStatic) return;
  const steal::TaskGraph& tg = prog.tg;
  const bool trace = profile != nullptr && !st.task_ns.empty();
  // (receiving worker, stamp, 0 = send / 1 = receive)
  std::vector<std::tuple<int, std::int64_t, int>> depth_events;
  for (const Program::CrossEdge& e : prog.cross_edges) {
    const steal::StealTask& src = tg.tasks[static_cast<std::size_t>(e.producer)];
    const steal::StealTask& dst = tg.tasks[static_cast<std::size_t>(e.consumer)];
    const std::int64_t bytes =
        values_[static_cast<std::size_t>(e.value) *
                    static_cast<std::size_t>(prog.hc.batch) +
                static_cast<std::size_t>(src.sample)]
            .byte_size();
    WorkerProfile& from = st.wps[static_cast<std::size_t>(src.home)];
    ++from.messages_sent;
    from.bytes_sent += bytes;
    st.wps[static_cast<std::size_t>(dst.home)].bytes_received += bytes;
    if (!trace) continue;
    const std::int64_t send_ns =
        st.task_ns[static_cast<std::size_t>(e.producer)].second;
    const std::int64_t recv_ns =
        st.task_ns[static_cast<std::size_t>(e.consumer)].first;
    profile->messages.push_back(MessageEvent{e.value, src.sample, src.home,
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
    profile->queue_depths.push_back(QueueDepthSample{w, ts, depth});
  }
}

}  // namespace ramiel

// Graph executors.
//
// SequentialExecutor is the single-core reference the paper's Ramiel also
// generates ("a single core non-parallel version of the code"). It runs the
// whole batch back to back on one thread.
//
// ParallelExecutor is the analogue of the generated parallel Python: the
// hyperclustered program lowered once to a dependency-counted task graph
// (rt/steal/task_graph.h) — one task per (node, sample), each carrying its
// `home` hypercluster worker — run on a persistent pool of worker threads
// with one shared (value, sample) tensor table. Finishing a task decrements
// its successors' counts; a successor is runnable at zero. A cross-cluster
// tensor is just a dependency edge into the shared table (the queue.put()/
// queue.get() pair of Algorithm 4). The placement picks who runs a task:
//
//   kStatic (pinned) — the paper's process-per-cluster model. Every task
//     runs on its home worker, which walks its per-sample streams
//     cooperatively: it stays on the sample it just ran and switches only
//     when that sample blocks, sleeping on its Doorbell (rt/doorbell.h)
//     when none can progress. A release that zeroes a task homed on
//     another worker rings that worker directly. Cross-home edges are
//     reported as messages (WorkerProfile::messages_sent/bytes_*, and
//     MessageEvents/QueueDepthSamples synthesised after a traced run).
//   kSteal — work stealing: a zeroed successor goes onto the finishing
//     worker's Chase–Lev deque (rt/steal/deque.h); idle workers steal the
//     oldest task round robin and park (bounded) on their own Doorbell
//     when nothing is left; a push rings one sleeping sibling per task.
//
// Outputs are bit-identical across placements: every task runs the same
// kernel on the same inputs with the same intra-op width; only the
// interleaving differs. With a memory plan, planned outputs land in the
// home worker's arena slots and each (home, sample) stream keeps its
// planned order (pinned by construction, by chain edges under steal), so
// slot-reuse liveness is what the planner assumed. Kernel scratch comes
// from a per-thread scratch arena.
//
// ParallelExecutor is *persistent* (the Taskflow executor pattern): its
// worker threads are spawned once, park between calls, and are reused by
// every run(); calls are serialized internally, so one executor can be
// shared behind a queue (see src/serve/).
//
// Intra-op parallelism: when RunOptions.intra_op_threads > 1, each worker
// owns a private thread pool of that size for its kernels — exactly how the
// paper's per-cluster Python processes each carry their own OpenMP pool,
// including the oversubscription behaviour Table V observes. The pools are
// persistent and rebuilt only when the requested width changes.
//
// Multi-program hosting (the fleet pool, src/serve/fleet/): one executor
// can host several compiled models' programs on ONE set of worker threads
// (as many as the widest program). Each program keeps its own task graph,
// memory plan and per-home arenas; the threads, scratch arenas and intra-op
// pools are shared. run_program(p, ...) dispatches one batch of program p;
// dispatches are serialized, so tenants time-slice the same cores instead
// of oversubscribing them. add_program()/remove_program() support hot model
// loading between dispatches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "mem/plan.h"
#include "passes/hypercluster.h"
#include "rt/executor_kind.h"
#include "rt/profiler.h"
#include "rt/steal/task_graph.h"
#include "tensor/tensor.h"

namespace ramiel {

struct OpContext;

namespace mem {
class SlotSink;
}  // namespace mem

/// Named tensors for one batch sample (graph inputs or outputs).
using TensorMap = std::unordered_map<std::string, Tensor>;

struct RunOptions {
  /// Kernel-level threads per worker; 1 = serial kernels.
  int intra_op_threads = 1;
  /// Record per-task trace events into the profile.
  bool trace = false;
};

/// The executor seam: everything the serving layer (and the tools) need
/// from a batch runtime. ParallelExecutor implements it for both
/// placements; construct it directly or via make_executor()
/// (rt/steal/steal_executor.h).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one batch (size fixed by the hyperclustering); returns per-sample
  /// graph outputs. Safe to call repeatedly and from multiple threads.
  virtual std::vector<TensorMap> run(const std::vector<TensorMap>& inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr) = 0;

  virtual ExecutorKind kind() const = 0;
  virtual int num_workers() const = 0;
  virtual int batch() const = 0;
  virtual std::uint64_t runs_completed() const = 0;

  /// True when this executor backs intermediates with a static memory plan.
  virtual bool mem_plan_enabled() const = 0;
};

/// Single-threaded reference executor.
class SequentialExecutor {
 public:
  /// The graph must outlive the executor.
  explicit SequentialExecutor(const Graph* graph);

  /// Runs every sample in `batch_inputs` back to back; returns per-sample
  /// graph outputs keyed by value name. Fills *profile when non-null.
  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) const;

 private:
  const Graph* graph_;
  std::vector<NodeId> order_;
};

/// One compiled program a ParallelExecutor hosts: the graph, its
/// hyperclustered task lists and (optionally) its static memory plan. The
/// graph and plan must outlive the executor (the plan is copied, the graph
/// is not).
struct ExecutorProgram {
  const Graph* graph = nullptr;
  Hyperclustering hc;
  const mem::MemPlan* mem_plan = nullptr;
};

/// The task-graph executor (one persistent thread per hypercluster of the
/// widest hosted program), with pinned (kStatic) or stealing (kSteal)
/// placement.
class ParallelExecutor : public Executor {
 public:
  /// The graph must outlive the executor. `hc.batch` fixes the batch size
  /// accepted by run(). Worker threads start immediately and park until the
  /// first run(). When `mem_plan` is non-null (and non-empty) the executor
  /// copies it and backs planned intermediates with persistent per-home
  /// arenas instead of per-run heap allocations; null runs fully on the
  /// heap (`--mem-plan=off`). `placement` must be kStatic or kSteal.
  ParallelExecutor(const Graph* graph, Hyperclustering hc,
                   const mem::MemPlan* mem_plan = nullptr,
                   ExecutorKind placement = ExecutorKind::kStatic);

  /// Shared-pool form: hosts every program on one set of worker threads
  /// (thread count = the widest program). Requires at least one program.
  explicit ParallelExecutor(std::vector<ExecutorProgram> programs,
                            ExecutorKind placement = ExecutorKind::kStatic);
  ~ParallelExecutor() override;

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Runs one batch of program 0 (batch_inputs.size() must equal that
  /// program's hyperclustering batch — checked up front). Returns
  /// per-sample graph outputs. Reuses the persistent workers; safe to call
  /// repeatedly and from multiple threads (calls are serialized).
  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) override;

  /// Runs one batch of program `program`. Dispatches across programs share
  /// the worker threads and are serialized against each other.
  std::vector<TensorMap> run_program(int program,
                                     const std::vector<TensorMap>& batch_inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr);

  /// Hot-loads another program onto the pool (spawning extra worker threads
  /// if it is wider than any current program). Returns its program id.
  /// Safe to call while other programs are being dispatched.
  int add_program(const Graph* graph, Hyperclustering hc,
                  const mem::MemPlan* mem_plan = nullptr);

  /// Retires a program: frees its arenas and rejects future dispatches.
  /// The caller must ensure no dispatch of it is in flight (the fleet
  /// registry drops entries only after their last batch completed). Worker
  /// threads are never shrunk. Ids are not reused.
  void remove_program(int program);

  ExecutorKind kind() const override { return placement_; }

  int num_workers() const override { return program_workers(0); }

  /// Worker (cluster) count of one hosted program.
  int program_workers(int program) const;

  /// Batch size every run() must supply (program 0's).
  int batch() const override { return program_batch(0); }

  /// Batch size of one hosted program.
  int program_batch(int program) const;

  /// Hosted program slots, including retired ones (ids are stable).
  int num_programs() const;

  /// Number of run() calls completed (success or failure) — lets tests
  /// confirm thread reuse rather than re-creation.
  std::uint64_t runs_completed() const override;

  /// True when program 0 runs with a (non-empty) memory plan.
  bool mem_plan_enabled() const override;

  /// Bytes currently held by all programs' planned-slot arenas (0 before
  /// the first planned run, and always 0 with plans disabled).
  std::size_t arena_bytes_allocated() const;

  /// Program 0's dependency-counted decomposition (test introspection).
  const steal::TaskGraph& task_graph() const;

 private:
  struct Program;
  struct Lane;
  struct RunState;

  int add_program_locked(ExecutorProgram program);
  void ensure_threads(int count);
  void worker_loop(int me);
  void run_pinned(int me, RunState& st, const OpContext& ctx,
                  mem::SlotSink& sink, std::vector<std::size_t>& cursor);
  void run_stealing(int me, RunState& st, const OpContext& ctx,
                    mem::SlotSink& sink);
  void execute_task(int me, std::int32_t t, bool stolen, RunState& st,
                    const OpContext& ctx, mem::SlotSink& sink);
  void ring_all();
  void tally_messages(const Program& prog, RunState& st, Profile* profile);

  const ExecutorKind placement_;

  /// Hosted programs; unique_ptr keeps addresses stable while add_program
  /// grows the vector (parked workers dereference entries during runs).
  std::vector<std::unique_ptr<Program>> programs_;
  /// Per worker thread: steal deque, doorbell and kernel-scratch arena.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;

  // Live scheduling state of the run in flight, reset by run_program()
  // while every worker is parked; sized for the largest hosted program.
  std::unique_ptr<std::atomic<std::int32_t>[]> deps_;
  std::size_t deps_capacity_ = 0;
  std::vector<Tensor> values_;  // (value, sample) -> produced tensor
  std::atomic<std::int64_t> remaining_{0};  // steal: tasks left in the run
  std::atomic<bool> abort_{false};

  std::mutex run_mu_;  // serializes concurrent run()/add/remove callers

  // Start/finish handshake between run_program() and the parked workers.
  mutable std::mutex ctl_mu_;
  std::condition_variable start_cv_;  // workers: wait for a new run/shutdown
  std::condition_variable done_cv_;   // run(): wait for all workers to finish
  std::uint64_t run_seq_ = 0;         // bumped per run
  std::uint64_t runs_completed_ = 0;
  int workers_done_ = 0;
  int workers_ready_ = 0;  // threads that captured their initial run_seq_
  bool shutdown_ = false;
  RunState* state_ = nullptr;  // non-null only while a run is in flight
};

}  // namespace ramiel

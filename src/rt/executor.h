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
// worker threads are spawned once, park on their doorbells between runs, and
// are reused by every run. Several runs may be in flight at once, the way
// Taskflow runs many topologies on one executor: each run takes a run slot
// of its program — its own dependency counters, value table and per-home
// arenas — from a pool that grows on demand, so a caller that never overlaps
// runs only ever uses one. Under the pinned placement a worker picks over
// the (run, sample) streams of every run in flight, preferring the oldest
// run; under the steal placement the deques carry tasks of every run. A run
// completes when its last task finished: that thread collects the outputs,
// tallies the messages, records the metrics and calls the run's completion.
// submit() is that path; run()/run_program() submit and wait on it. A
// failing run fails only itself: its remaining tasks drain without running
// kernels, and the runs beside it finish normally.
//
// Short runs: a run may carry fewer samples than the compiled batch. No
// dependency edge crosses samples, so a run of n samples runs the tasks of
// samples [0, n) only — the pinned placement starts the other streams at
// their end, the steal placement skips their seeds — and returns n output
// maps, bit-identical to the first n of a full run on the same inputs.
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
// memory plan and run slots; the threads, scratch arenas and intra-op pools
// are shared. run_program(p, ...) runs one batch of program p.
// add_program()/remove_program() support hot model loading: they wait for
// the runs in flight to drain and hold new ones back while they change the
// program table.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
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

  /// Runs 1 to batch() samples; returns their graph outputs, one map per
  /// sample. Safe to call repeatedly and from multiple threads (concurrent
  /// calls overlap).
  virtual std::vector<TensorMap> run(const std::vector<TensorMap>& inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr) = 0;

  virtual ExecutorKind kind() const = 0;
  virtual int num_workers() const = 0;
  /// The compiled batch: the most samples one run() takes.
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
  /// Receives one run's per-sample outputs (empty when `error` is set) and
  /// its profile. Runs on the worker thread that finished the run: it must
  /// not throw, and must not wait for this executor (no run(), no
  /// add_program(), no destruction) — the executor waits for it instead.
  using Completion = std::function<void(std::vector<TensorMap> outputs,
                                        std::exception_ptr error,
                                        Profile profile)>;

  /// The graph must outlive the executor. `hc.batch` is the most samples
  /// one run() takes. Worker threads start immediately and park until the
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
  /// Drains the runs in flight (their completions included), then joins
  /// the workers.
  ~ParallelExecutor() override;

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Runs 1 to batch() samples of program 0 (checked up front) and returns
  /// their graph outputs, one map per sample; a short run runs only its
  /// samples' tasks. Reuses the persistent workers; safe to call repeatedly
  /// and from multiple threads (their runs overlap).
  std::vector<TensorMap> run(const std::vector<TensorMap>& batch_inputs,
                             const RunOptions& options = {},
                             Profile* profile = nullptr) override;

  /// Runs 1 to program_batch(program) samples of program `program`:
  /// submit() and wait.
  std::vector<TensorMap> run_program(int program,
                                     const std::vector<TensorMap>& batch_inputs,
                                     const RunOptions& options = {},
                                     Profile* profile = nullptr);

  /// Starts a run of program `program` on 1 to program_batch(program)
  /// samples and returns; `done` receives their outputs or the error. A bad
  /// program id or sample count throws here, before anything runs. Waits
  /// only while add_program()/remove_program() hold new runs back.
  void submit(int program, std::vector<TensorMap> batch_inputs,
              const RunOptions& options, Completion done);

  /// Hot-loads another program onto the pool (spawning extra worker threads
  /// if it is wider than any current program). Returns its program id.
  /// Waits for the runs in flight to drain.
  int add_program(const Graph* graph, Hyperclustering hc,
                  const mem::MemPlan* mem_plan = nullptr);

  /// Retires a program: waits for the runs in flight to drain, frees its
  /// arenas and rejects future runs of it. Worker threads are never
  /// shrunk. Ids are not reused.
  void remove_program(int program);

  ExecutorKind kind() const override { return placement_; }

  int num_workers() const override { return program_workers(0); }

  /// Worker (cluster) count of one hosted program.
  int program_workers(int program) const;

  /// Program 0's compiled batch: the most samples one run() takes.
  int batch() const override { return program_batch(0); }

  /// Compiled batch of one hosted program.
  int program_batch(int program) const;

  /// The hyperclustering one hosted program runs (its profile's workers).
  const Hyperclustering& program_hyperclusters(int program) const;

  /// Hosted program slots, including retired ones (ids are stable).
  int num_programs() const;

  /// Number of runs completed (success or failure) — lets tests confirm
  /// thread reuse rather than re-creation.
  std::uint64_t runs_completed() const override;

  /// True when program 0 runs with a (non-empty) memory plan.
  bool mem_plan_enabled() const override;

  /// Bytes currently held by all programs' planned-slot arenas (0 before
  /// the first planned run, and always 0 with plans disabled).
  std::size_t arena_bytes_allocated() const;

  /// Run slots program `program` has made so far (test introspection: a
  /// caller that never overlaps runs makes one).
  int run_slots(int program) const;

  /// (base, capacity) of every planned-slot arena of program `program`'s
  /// run slots (test introspection: slots in flight at once must not
  /// overlap).
  std::vector<std::pair<const float*, std::size_t>> run_slot_arenas(
      int program) const;

  /// Program 0's dependency-counted decomposition (test introspection).
  const steal::TaskGraph& task_graph() const;

 private:
  struct Program;
  struct RunSlot;
  struct Lane;
  struct Worker;
  /// What a worker's scan over the runs in flight found.
  enum class Step {
    kProgress,  // ran a task (or saw work appear): scan again
    kBlocked,   // a run still needs this worker, nothing runnable yet
    kIdle,      // no run in flight needs this worker
  };

  /// Program `program` (caller holds mu_ or is the constructor).
  Program& program_at(int program) const;
  int add_program_locked(ExecutorProgram program);
  void ensure_threads(int count);
  /// Tells every worker to exit and joins it (no run may be in flight).
  void stop_workers();
  /// Waits (holding back new runs) until no run is in flight; resume()
  /// lets them in again and unlocks.
  void quiesce(std::unique_lock<std::mutex>& lk);
  void resume(std::unique_lock<std::mutex>& lk);
  /// A free run slot of `prog`, made on demand (caller holds mu_).
  RunSlot* take_run_slot(Program& prog);
  void start_run(int program, std::vector<TensorMap> owned,
                 const std::vector<TensorMap>* inputs,
                 const RunOptions& options, Completion done);
  void worker_loop(int me);
  Step step_pinned(Worker& w);
  Step step_stealing(Worker& w);
  void run_task(Worker& w, RunSlot& run, std::int32_t t, bool stolen);
  void execute_task(Worker& w, RunSlot& run, std::int32_t t);
  void finish_run(RunSlot& run);
  void tally_messages(RunSlot& run, Profile& profile);

  const ExecutorKind placement_;

  // mu_ guards the program table's growth, the lane list, run admission
  // and the in-flight list. Workers copy `active_` and the lanes into their
  // own state whenever `active_gen_` moved, so they never read the vectors.
  mutable std::mutex mu_;
  std::condition_variable cv_;  // in_flight_ dropped or holds_ released
  /// Hosted programs; unique_ptr keeps addresses stable while add_program
  /// grows the vector (run slots point at their program).
  std::vector<std::unique_ptr<Program>> programs_;
  /// Per worker thread: steal deque, doorbell and kernel-scratch arena.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<RunSlot*> active_;  // runs in flight, oldest first
  std::atomic<std::uint64_t> active_gen_{0};
  int in_flight_ = 0;  // started runs whose completion has not returned
  int holds_ = 0;      // add/remove_program calls holding new runs back
  std::uint64_t run_seq_ = 0;
  std::uint64_t runs_completed_ = 0;
  bool shutdown_ = false;

  // Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace ramiel

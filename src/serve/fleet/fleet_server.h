// Multi-tenant fleet server: N models, one admission door, one machine.
// This is the one serving path; a single-model server (tools/ramiel_serve)
// is a one-tenant fleet on a partitioned pool.
//
// Every request takes the same route: input check (every graph input
// present with its shape and dtype) -> admission (quota + bounded queue) ->
// per-tenant batch fill -> executor, which runs a short batch's real
// samples only. The fill is work-conserving: a batch is the tenant's head
// request plus whatever of that tenant is already queued, up to its batch
// size, and nothing waits for batch-mates. Requests that arrive while a
// batch runs queue behind the tenant's in-flight bound and leave together
// as the next batch, so batches fill with load and a lone request at an
// idle tenant leaves at once as a 1-sample short run.
//
// Composition of the fleet subsystem (see the sibling headers for each
// part's contract):
//
//   submit(model, sample)
//        │ input check; per-tenant token bucket + bounded queue
//        ▼                                           (fleet/admission.h)
//   FleetQueue ── weighted-fair + aging pop ──▶ head request
//        │   + take() of the tenant's queued requests, up to its batch
//        │
//        │   ParallelExecutor::submit (rt/executor.h) on the tenant's own
//        │   executor (partitioned, or a pipelined tenant's stage cut) or
//        │   on the ONE multi-program executor the shared tenants share;
//        │   then wait until the tenant is under its in-flight bound
//        ▼
//   finish (the run's completion): promises fulfilled, per-tenant
//   StatsCollector updated, span and tail exemplar kept
//
// Pool modes:
//   - "shared": one dispatcher thread runs the fair dequeue and drives one
//     ParallelExecutor that hosts all tenants' programs — tenants
//     time-slice a single persistent worker pool instead of oversubscribing
//     the machine with per-model thread sets. The dispatcher waits for each
//     batch before it dequeues the next (in-flight bound 1), which is
//     exactly why admission order (fair + aging) is the thing that decides
//     who waits. A shared pool runs its tenants on
//     the pinned (static) placement, so their executor resolves to
//     `static` whatever the config asks for; `steal` and `auto` take
//     effect in `partitioned` mode.
//   - "partitioned": the isolation baseline — each tenant gets its own
//     dispatcher thread and its own one-program executor (static or steal
//     per the model's resolved kind). Admission and quotas are shared; the
//     machine is not.
//
// Pipelined tenants (pipeline_stages > 1) run their stage cut
// (fleet/pipeline.h) on their own pinned one-program executor, one worker
// per stage, in either pool mode. Their in-flight bound is 2: the
// dispatcher fills and submits the next batch while the previous one drains
// the later stages, so consecutive batches overlap across stages, each in
// its own run slot. Every batch finishes on the executor thread that ran
// its last task, through the same finish().
//
// Hot add/remove: add_model() on a new name registers + starts serving it;
// on an existing name it compiles the replacement off to the side (a
// bumped-version ModelEntry) and swaps it in under the tenant's dispatch
// lock — the in-flight batch finishes on the old version, the next batch
// runs the new one, and the old artifact stays alive until the fleet drops
// it. remove_model() closes the tenant's admission, waits for its queue to
// drain, then retires the program.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/prof/critical_path.h"
#include "serve/fleet/admission.h"
#include "rt/executor.h"
#include "serve/fleet/config.h"
#include "serve/fleet/registry.h"
#include "serve/request.h"
#include "serve/stats.h"

namespace ramiel::obs {
class Timeline;
}  // namespace ramiel::obs

namespace ramiel::serve::fleet {

/// First Perfetto pid of the per-tenant tracks (tenant i gets pid
/// kTenantPidBase + i, above the runtime and compiler tracks).
inline constexpr int kTenantPidBase = 3;

/// Jain's fairness index over per-tenant allocations: (Σx)² / (n·Σx²).
/// 1.0 = perfectly even, 1/n = one tenant has everything. Empty or all-zero
/// input yields 0.
double jain_fairness(const std::vector<double>& allocations);

/// Slowest batches retained per tenant when FleetOptions::profile is on.
inline constexpr int kProfileExemplars = 4;

struct FleetOptions {
  /// Kernel threads per worker, every tenant (RunOptions.intra_op_threads).
  int intra_op_threads = 1;
  /// Back intermediates with each model's static memory plan.
  bool mem_plan = true;
  /// kAuto threshold on cluster_cost_cv (registry resolution).
  double auto_steal_cv = 0.35;
  /// Record per-tenant batch-dispatch spans for append_trace().
  bool trace = false;
  /// Tail attribution: record per-task events for every batch and keep
  /// each tenant's kProfileExemplars slowest batches with their realized
  /// critical-path reports (prof::analyze) — which op/cluster caused each
  /// p99 batch (for a pipelined tenant, which stage). The executors already
  /// read the clock twice per task, so recording adds one vector append per
  /// task (BENCH_serve.json, "profiler_overhead").
  bool profile = false;
};

/// One retained slow batch: its recorded profile plus the critical-path
/// attribution computed when it entered the exemplar set.
struct TailExemplar {
  double wall_ms = 0.0;
  std::int64_t dispatch_ns = 0;
  Profile profile;
  prof::CriticalPathReport report;
  /// The artifact the batch ran (its graph renders the profile).
  std::shared_ptr<const ModelEntry> entry;
};

/// The one-tenant fleet tools/ramiel_serve runs: tenant `name` on a
/// "partitioned" pool, so its static|steal|auto choice is honoured. Starts
/// from the single-model defaults and their deployment overrides:
/// RAMIEL_SERVE_QUEUE_DEPTH (256), RAMIEL_EXECUTOR (static; auto allowed),
/// RAMIEL_DTYPE (f32).
FleetConfig single_tenant_config(const std::string& name);

/// Options for the same one-tenant fleet: profiling on, plus the overrides
/// RAMIEL_INTRA_OP_THREADS (1), RAMIEL_MEM_PLAN (arena) and
/// RAMIEL_AUTO_STEAL_CV (0.35).
FleetOptions single_tenant_options();

/// One tenant's externally visible state, as returned by report().
struct TenantReport {
  std::string name;
  int version = 0;
  ExecutorKind executor = ExecutorKind::kStatic;
  int pipeline_stages = 1;
  /// StageCut::modeled_speedup() for pipelined tenants, 1.0 otherwise.
  double modeled_pipeline_speedup = 1.0;
  /// Lifetime counters plus the exact-latency window since the previous
  /// report() (the final window once the tenant is frozen by shutdown or
  /// remove).
  ServerStats stats;
  TenantCounters admission;   // token-bucket / bounded-queue accounting
};

class FleetServer {
 public:
  /// Compiles and starts serving every model in `config`. A non-default
  /// `loader` replaces the zoo builder (tests). Throws on invalid configs
  /// or unknown model specs.
  explicit FleetServer(const FleetConfig& config, FleetOptions options = {},
                       ModelRegistry::Loader loader = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Submits one sample to tenant `model`. Never blocks: malformed-input
  /// (a graph input missing, or of the wrong shape or dtype), quota,
  /// full-queue, unknown-model and shutdown rejections resolve the future
  /// immediately with !ok and a reason; admitted requests resolve when
  /// their batch completes.
  std::future<Response> submit(const std::string& model, TensorMap inputs);

  /// Hot add (new name) or hot swap (existing name). Compilation happens on
  /// the caller's thread; the running fleet is only paused for the pointer
  /// swap. Swap also applies the new admission options (quota, weight,
  /// aging) atomically with the artifact.
  void add_model(const ModelConfig& config);

  /// Closes `model`'s admission, drains its queued requests, retires its
  /// program. Returns false when no such tenant. Idempotent per name.
  bool remove_model(const std::string& model);

  /// Stops admission everywhere, serves every already-admitted request,
  /// joins all fleet threads, freezes per-tenant stats. Idempotent; called
  /// by the destructor.
  void shutdown();

  /// Currently registered tenant names (insertion order, minus removed).
  std::vector<std::string> models() const;

  /// Registry version of `model` (0 when absent).
  int model_version(const std::string& model) const;

  /// Current artifact handle (nullptr when absent). Load drivers use the
  /// compiled graph to synthesize matching input payloads.
  std::shared_ptr<const ModelEntry> model_entry(const std::string& model) const {
    return registry_.lookup(model);
  }

  TenantCounters tenant_counters(const std::string& model) const;
  ServerStats tenant_stats(const std::string& model) const;
  /// Exact-percentile window since the previous tenant_window_stats() or
  /// report() for this tenant (the final window after shutdown/remove).
  ServerStats tenant_window_stats(const std::string& model) const;

  /// Per-tenant reports, one per live tenant (window percentiles reset).
  std::vector<TenantReport> report();

  /// `model`'s retained slowest batches, slowest first (profile mode;
  /// empty until its first batch completes or when profiling is off).
  std::vector<TailExemplar> tail_exemplars(const std::string& model) const;

  /// Strict-JSON array of per-tenant stats objects (round-trips through
  /// obs::json_parse; the ramiel_fleet --stats-out document).
  std::string stats_json();

  /// Per-tenant batch-dispatch tracks (trace mode): tenant i's spans land
  /// on pid kTenantPidBase + i named "tenant:<name>". In profile mode the
  /// fleet's slowest batch is added on the runtime track: task spans with
  /// its realized critical path highlighted, message-flow arrows and
  /// queue-depth counters. Combine with add_compile_trace() for the
  /// complete compile->serve timeline.
  void append_trace(obs::Timeline& timeline) const;

  const std::string& pool() const { return pool_; }
  int num_tenants() const;

 private:
  struct BatchSpan {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int real = 0;
    int slots = 0;
  };

  struct Tenant {
    std::string name;
    int index = -1;  // FleetQueue tenant index == tenants_ index
    /// Guarded by exec_mu: the artifact handle and its runtime binding —
    /// program `program` of `pool` (the tenant's own executor on a
    /// partitioned pool or for a pipelined tenant, the shared one
    /// otherwise).
    std::shared_ptr<const ModelEntry> entry;
    ParallelExecutor* pool = nullptr;
    int program = -1;
    std::unique_ptr<ParallelExecutor> own_pool;
    /// From the stage cut (1 and 1.0 when not pipelined).
    int pipeline_stages = 1;
    double modeled_speedup = 1.0;
    /// Batches submitted whose finish() has not returned.
    std::mutex flight_mu;
    std::condition_variable flight_cv;
    int in_flight = 0;
    std::unique_ptr<StatsCollector> stats;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected_quota = nullptr;
    obs::Counter* rejected_full = nullptr;
    obs::Counter* aged = nullptr;
    std::uint64_t aged_seen = 0;  // last mirrored FleetQueue aged count
    /// Serializes dispatch against hot swap/remove: a swap waits here for
    /// the in-flight batch, which is the "finish on the old version" rule.
    std::mutex exec_mu;
    bool removed = false;  // guarded by exec_mu
    std::thread dispatcher;  // partitioned mode only
    std::mutex trace_mu;
    std::vector<BatchSpan> spans;
    std::vector<TailExemplar> exemplars;  // profile mode: slowest first
  };

  static TenantOptions admission_options(const ModelConfig& config,
                                         double aging_ms);

  Tenant* find(const std::string& name) const;
  Tenant& tenant(int index) const;
  void install_runtime(Tenant& t, std::shared_ptr<const ModelEntry> entry);
  /// Drains and drops `t`'s runtime binding (caller holds exec_mu and
  /// tenants_mu_).
  void retire_runtime(Tenant& t);
  /// Fills a batch for `first`'s tenant from what is already queued,
  /// submits it (1 to the tenant's slots requests) to the tenant's executor
  /// with finish() as its completion, then waits until the tenant is under
  /// its in-flight bound.
  void serve_one(Tenant& t, Request first);
  /// Fans the outputs (or the error) out to the riders, updates the stats,
  /// records the span and ends the batch's flight. `hc` is the program the
  /// batch ran. Takes no fleet-wide lock: it runs on an executor thread,
  /// which hot swap and remove drain while holding tenants_mu_ and exec_mu.
  void finish(Tenant& t, const std::shared_ptr<const ModelEntry>& entry,
              const Hyperclustering& hc, std::vector<Request>& riders,
              int slots, std::int64_t dispatch_ns,
              std::vector<TensorMap> outputs, std::exception_ptr error,
              const Profile& profile);
  /// One dispatcher: pops `source`'s head request (a tenant index, or
  /// FleetQueue::kAnyTenant for the shared pool's fair dequeue) and serves
  /// it until the queue is closed and drained.
  void dispatch_loop(int source);
  void mirror_aged(Tenant& t);
  void maybe_keep_exemplar(Tenant& t,
                           const std::shared_ptr<const ModelEntry>& entry,
                           const Hyperclustering& hc, const Profile& profile,
                           std::int64_t dispatch_ns);

  FleetOptions options_;
  std::string pool_;
  double aging_ms_ = 50.0;
  ModelRegistry registry_;
  FleetQueue queue_;

  mutable std::mutex tenants_mu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  // grows only
  std::unordered_map<std::string, int> index_;    // live names only
  /// Swapped-out and removed artifacts, kept alive for the fleet's life:
  /// the shared executor retains raw graph pointers of retired programs.
  std::vector<std::shared_ptr<const ModelEntry>> retired_;

  /// Shared pool. Constructed lazily on the first non-pipelined tenant
  /// (a fleet of only pipelined tenants needs no shared pool).
  std::unique_ptr<ParallelExecutor> shared_exec_;

  std::thread shared_dispatcher_;
  bool shutdown_done_ = false;
  std::mutex shutdown_mu_;
};

}  // namespace ramiel::serve::fleet

#include "serve/fleet/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mem/planner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fleet/pipeline.h"
#include "support/check.h"
#include "support/env.h"
#include "support/stopwatch.h"
#include "support/string_util.h"

namespace ramiel::serve::fleet {

double jain_fairness(const std::vector<double>& allocations) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (allocations.empty() || sum_sq <= 0.0) return 0.0;
  return sum * sum /
         (static_cast<double>(allocations.size()) * sum_sq);
}

namespace {

/// Batches a pipelined tenant keeps in flight: one filling the early
/// stages while the previous one drains the later ones. Every other tenant
/// finishes each batch before it dispatches the next.
constexpr int kPipelinedInFlight = 2;

/// Resolves `promise` with a refusal that never reached a runtime.
void refuse(std::promise<Response>& promise, std::string error) {
  Response r;
  r.ok = false;
  r.error = std::move(error);
  promise.set_value(std::move(r));
}

/// Why `inputs` cannot run on `graph`, or "" when they can: a graph input
/// is missing, or its tensor's shape or dtype is not the input's.
std::string input_error(const Graph& graph, const TensorMap& inputs) {
  for (ValueId id : graph.inputs()) {
    const Value& v = graph.value(id);
    const auto it = inputs.find(v.name);
    if (it == inputs.end()) return str_cat("missing input '", v.name, "'");
    const Tensor& t = it->second;
    if (t.shape() != v.shape) {
      return str_cat("input '", v.name, "' has shape ", t.shape().to_string(),
                     ", want ", v.shape.to_string());
    }
    if (t.dtype() != v.dtype) {
      return str_cat("input '", v.name, "' has dtype ", dtype_name(t.dtype()),
                     ", want ", dtype_name(v.dtype));
    }
  }
  return "";
}

}  // namespace

FleetConfig single_tenant_config(const std::string& name) {
  ModelConfig model;
  model.name = name;
  model.queue_depth = env_serve_queue_depth(256);
  model.executor = env_executor_kind(ExecutorKind::kStatic,
                                     /*allow_auto=*/true);
  model.dtype = env_dtype(DType::kF32);
  FleetConfig config;
  config.pool = "partitioned";
  config.models = {model};
  return config;
}

FleetOptions single_tenant_options() {
  FleetOptions options;
  options.intra_op_threads = env_intra_op_threads(1);
  options.mem_plan = env_mem_plan_default(true);
  options.auto_steal_cv = env_auto_steal_cv(0.35);
  options.profile = true;
  return options;
}

TenantOptions FleetServer::admission_options(const ModelConfig& config,
                                             double aging_ms) {
  TenantOptions o;
  o.quota_rps = config.quota_rps;
  o.burst = config.burst;
  o.weight = config.weight;
  o.queue_depth = static_cast<std::size_t>(config.queue_depth);
  // SLO class -> aging: interactive tenants reach the fairness boost twice
  // as fast, batch tenants wait their fair turn forever.
  if (config.slo_class == "interactive") {
    o.aging_ns = static_cast<std::int64_t>(aging_ms / 2.0 * 1e6);
  } else if (config.slo_class == "batch") {
    o.aging_ns = 0;
  } else {
    o.aging_ns = static_cast<std::int64_t>(aging_ms * 1e6);
  }
  return o;
}

FleetServer::FleetServer(const FleetConfig& config, FleetOptions options,
                         ModelRegistry::Loader loader)
    : options_(options),
      pool_(config.pool),
      aging_ms_(config.aging_ms),
      registry_(
          [&] {
            RegistryOptions r;
            r.auto_steal_cv = options.auto_steal_cv;
            r.mem_plan = options.mem_plan;
            return r;
          }(),
          std::move(loader)) {
  RAMIEL_CHECK(pool_ == "shared" || pool_ == "partitioned",
               str_cat("unknown pool mode '", pool_, "'"));
  RAMIEL_CHECK(!config.models.empty(), "fleet needs at least one model");
  try {
    for (const ModelConfig& mc : config.models) add_model(mc);
  } catch (...) {
    shutdown();  // join whatever partial fleet already started
    throw;
  }
  if (pool_ == "shared") {
    shared_dispatcher_ =
        std::thread([this] { dispatch_loop(FleetQueue::kAnyTenant); });
  }
}

FleetServer::~FleetServer() { shutdown(); }

void FleetServer::install_runtime(Tenant& t,
                                  std::shared_ptr<const ModelEntry> entry) {
  // Caller holds tenants_mu_ (shared_exec_ access) and, for a published
  // tenant, its exec_mu.
  const ModelConfig& mc = entry->config;
  const CompiledModel& cm = entry->compiled;
  const mem::MemPlan* plan =
      options_.mem_plan && !cm.mem_plan.empty() ? &cm.mem_plan : nullptr;
  t.pipeline_stages = 1;
  t.modeled_speedup = 1.0;
  if (mc.pipeline_stages > 1) {
    // The stage cut runs as its own pinned program, one worker per stage
    // (the thread count of the cut), planned like any hyperclustering:
    // cross-stage values are cross-worker sends to the planner.
    const StageCut cut =
        build_stage_cut(cm.graph, cm.clustering, mc.pipeline_stages);
    Hyperclustering hc = stage_hyperclusters(cm.graph, cut, mc.batch);
    const mem::MemPlan stage_plan =
        plan != nullptr ? mem::plan_memory(cm.graph, hc) : mem::MemPlan{};
    t.own_pool = std::make_unique<ParallelExecutor>(
        &cm.graph, std::move(hc), plan != nullptr ? &stage_plan : nullptr,
        ExecutorKind::kStatic);
    t.pool = t.own_pool.get();
    t.program = 0;
    t.pipeline_stages = cut.num_stages();
    t.modeled_speedup = cut.modeled_speedup();
  } else if (pool_ == "partitioned" || !shared_exec_) {
    // A one-program executor: the tenant's own, or the first shared
    // tenant's, which every later shared tenant joins.
    auto exec = std::make_unique<ParallelExecutor>(
        &cm.graph, cm.hyperclusters, plan, entry->executor);
    t.pool = exec.get();
    t.program = 0;
    (pool_ == "partitioned" ? t.own_pool : shared_exec_) = std::move(exec);
  } else {
    t.pool = shared_exec_.get();
    t.program = shared_exec_->add_program(&cm.graph, cm.hyperclusters, plan);
  }
  t.entry = std::move(entry);
}

void FleetServer::retire_runtime(Tenant& t) {
  // Either way the tenant's runs in flight and their finish() drain first.
  if (t.own_pool) {
    t.own_pool.reset();
  } else if (t.pool != nullptr) {
    t.pool->remove_program(t.program);
  }
  t.pool = nullptr;
  t.program = -1;
}

void FleetServer::add_model(const ModelConfig& config) {
  // Compile off to the side first: the fleet keeps serving while the
  // replacement (or the new tenant) is built. A shared pool runs every
  // tenant pinned, and a pipelined tenant runs its stage cut pinned, so
  // both register as static: the entry, report(), stats_json()
  // and the executor gauge then name what actually runs.
  ModelConfig resolved = config;
  if (pool_ == "shared" || config.pipeline_stages > 1) {
    resolved.executor = ExecutorKind::kStatic;
  }
  std::shared_ptr<const ModelEntry> entry = registry_.add(resolved);

  Tenant* existing = find(config.name);
  if (existing != nullptr) {
    // Hot swap: the in-flight batch holds exec_mu and finishes on the old
    // version; everything after this lock runs the new one.
    std::lock_guard<std::mutex> run_lock(existing->exec_mu);
    RAMIEL_CHECK(!existing->removed,
                 str_cat("model '", config.name, "' was removed"));
    std::shared_ptr<const ModelEntry> old = existing->entry;
    std::lock_guard<std::mutex> lk(tenants_mu_);
    retire_runtime(*existing);
    install_runtime(*existing, std::move(entry));
    queue_.update_tenant(existing->index,
                         admission_options(config, aging_ms_),
                         Stopwatch::now_ns());
    // The shared executor's retired program still points at the old graph;
    // keep the artifact alive for the fleet's lifetime.
    retired_.push_back(std::move(old));
    return;
  }

  auto t = std::make_unique<Tenant>();
  t->name = config.name;
  t->stats = std::make_unique<StatsCollector>();
  const obs::Labels labels = {{"model", config.name}};
  t->admitted = obs::registry().counter(
      "ramiel_fleet_admitted_total", "Requests admitted past both gates",
      labels);
  t->rejected_quota = obs::registry().counter(
      "ramiel_fleet_rejected_total", "Requests rejected at admission",
      {{"model", config.name}, {"reason", "quota"}});
  t->rejected_full = obs::registry().counter(
      "ramiel_fleet_rejected_total", "Requests rejected at admission",
      {{"model", config.name}, {"reason", "full"}});
  t->aged = obs::registry().counter(
      "ramiel_fleet_aged_total",
      "Requests served via the aging fast path (fairness boost)", labels);

  Tenant* published = nullptr;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    t->index = queue_.add_tenant(config.name,
                                 admission_options(config, aging_ms_));
    RAMIEL_CHECK(t->index == static_cast<int>(tenants_.size()),
                 "tenant index drifted from the queue's");
    install_runtime(*t, std::move(entry));
    index_[config.name] = t->index;
    tenants_.push_back(std::move(t));
    published = tenants_.back().get();
  }
  if (pool_ == "partitioned") {
    published->dispatcher = std::thread(
        [this, index = published->index] { dispatch_loop(index); });
  }
}

bool FleetServer::remove_model(const std::string& model) {
  Tenant* t = find(model);
  if (t == nullptr) return false;
  queue_.close_tenant(t->index);
  if (t->dispatcher.joinable()) {
    // Partitioned: the tenant's dispatcher drains the closed queue and
    // exits on kClosed — joining it IS the drain.
    t->dispatcher.join();
  } else {
    // Shared: the fair dispatcher keeps popping the closed tenant until
    // its queue is empty.
    while (queue_.tenant_depth(t->index) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  {
    // Waits out the in-flight batch, then retires the runtime.
    std::lock_guard<std::mutex> run_lock(t->exec_mu);
    if (t->removed) return true;
    t->removed = true;
    std::lock_guard<std::mutex> lk(tenants_mu_);
    retire_runtime(*t);
    retired_.push_back(t->entry);
    index_.erase(model);
  }
  registry_.remove(model);
  t->stats->freeze();
  return true;
}

std::future<Response> FleetServer::submit(const std::string& model,
                                          TensorMap inputs) {
  Request request;
  request.inputs = std::move(inputs);
  request.enqueue_ns = Stopwatch::now_ns();
  std::future<Response> result = request.promise.get_future();

  Tenant* t = find(model);
  if (t == nullptr) {
    refuse(request.promise, str_cat("unknown model '", model, "'"));
    return result;
  }

  t->stats->on_submit();
  // A request the graph cannot run is refused here, before it can share a
  // batch: checked against the latest registered version of the tenant.
  if (const std::shared_ptr<const ModelEntry> entry = registry_.lookup(model)) {
    const std::string bad = input_error(entry->compiled.graph, request.inputs);
    if (!bad.empty()) {
      t->stats->on_reject();
      refuse(request.promise, str_cat("model '", model, "': ", bad));
      return result;
    }
  }
  const std::int64_t now_ns = request.enqueue_ns;
  const FleetQueue::Admit admit =
      queue_.try_push(t->index, std::move(request), now_ns);
  if (admit == FleetQueue::Admit::kOk) {
    t->admitted->inc();
    return result;
  }
  t->stats->on_reject();
  switch (admit) {
    case FleetQueue::Admit::kQuota:
      t->rejected_quota->inc();
      refuse(request.promise,
             str_cat("quota exceeded for model '", model, "'"));
      break;
    case FleetQueue::Admit::kFull:
      t->rejected_full->inc();
      refuse(request.promise, str_cat("queue full for model '", model, "'"));
      break;
    default:
      refuse(request.promise, str_cat("model '", model, "' is shut down"));
      break;
  }
  return result;
}

void FleetServer::dispatch_loop(int source) {
  while (true) {
    int index = source;
    Request first;
    if (queue_.pop(&index, &first) == FleetQueue::PopResult::kClosed) return;
    serve_one(tenant(index), std::move(first));
  }
}

void FleetServer::serve_one(Tenant& t, Request first) {
  std::lock_guard<std::mutex> run_lock(t.exec_mu);
  if (t.removed) {
    refuse(first.promise, str_cat("model '", t.name, "' was removed"));
    return;
  }
  const std::shared_ptr<const ModelEntry> entry = t.entry;
  const int slots = entry->config.batch;

  // Work-conserving fill: the head request plus whatever of this tenant is
  // already queued, up to the batch; nothing waits for company. Requests
  // that arrive while this batch runs (the in-flight bound below) form
  // the next one. A closed queue still hands out what it holds, so
  // shutdown drains.
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(slots));
  batch.push_back(std::move(first));
  queue_.take(t.index, static_cast<std::size_t>(slots) - 1, &batch);
  t.stats->queue_depth_gauge()->set(
      static_cast<double>(queue_.tenant_depth(t.index)));
  mirror_aged(t);

  // A short batch runs only its real samples' tasks (a short run of the
  // program, rt/executor.h). The riders keep their promises, not inputs.
  const std::int64_t dispatch_ns = Stopwatch::now_ns();
  std::vector<TensorMap> inputs;
  inputs.reserve(batch.size());
  for (Request& r : batch) inputs.push_back(std::move(r.inputs));

  RunOptions run_opts;
  run_opts.intra_op_threads = options_.intra_op_threads;
  run_opts.trace = options_.profile;

  auto riders = std::make_shared<std::vector<Request>>(std::move(batch));
  const Hyperclustering* hc = &t.pool->program_hyperclusters(t.program);
  {
    std::lock_guard<std::mutex> lk(t.flight_mu);
    ++t.in_flight;
  }
  try {
    t.pool->submit(t.program, std::move(inputs), run_opts,
                   [this, &t, entry, hc, riders, slots, dispatch_ns](
                       std::vector<TensorMap> outputs,
                       std::exception_ptr error, Profile profile) {
                     finish(t, entry, *hc, *riders, slots, dispatch_ns,
                            std::move(outputs), error, profile);
                   });
  } catch (...) {
    finish(t, entry, *hc, *riders, slots, dispatch_ns, {},
           std::current_exception(), Profile{});
  }
  // The in-flight bound is the tenant's backpressure: a pipelined tenant
  // returns to fill its next batch while this one drains, everyone else
  // waits for it here.
  const int bound = t.pipeline_stages > 1 ? kPipelinedInFlight : 1;
  std::unique_lock<std::mutex> lk(t.flight_mu);
  t.flight_cv.wait(lk, [&] { return t.in_flight < bound; });
}

void FleetServer::finish(Tenant& t,
                         const std::shared_ptr<const ModelEntry>& entry,
                         const Hyperclustering& hc,
                         std::vector<Request>& riders, int slots,
                         std::int64_t dispatch_ns,
                         std::vector<TensorMap> outputs,
                         std::exception_ptr error, const Profile& profile) {
  const int real = static_cast<int>(riders.size());
  t.stats->on_batch(real, slots, profile);
  if (!error && options_.profile) {
    maybe_keep_exemplar(t, entry, hc, profile, dispatch_ns);
  }
  // Malformed inputs were refused at submit(), so what fails here fails on
  // its values (a gather index out of range, say). The riders shared one
  // run: every one gets the error, and the tenant keeps serving.
  std::string failure;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      failure = str_cat("execution failed: ", e.what());
    } catch (...) {
      failure = "execution failed";
    }
  }
  const std::int64_t done_ns = Stopwatch::now_ns();
  for (int i = 0; i < real; ++i) {
    Request& r = riders[static_cast<std::size_t>(i)];
    Response resp;
    resp.ok = !error;
    resp.latency_ms = static_cast<double>(done_ns - r.enqueue_ns) / 1e6;
    resp.batch_slots = slots;
    resp.batch_real = real;
    if (error) {
      resp.error = failure;
      t.stats->on_failed();
    } else {
      resp.outputs = std::move(outputs[static_cast<std::size_t>(i)]);
      t.stats->on_served(resp.latency_ms);
    }
    r.promise.set_value(std::move(resp));
  }
  if (!error && options_.trace) {
    std::lock_guard<std::mutex> lk(t.trace_mu);
    t.spans.push_back(BatchSpan{dispatch_ns, done_ns, real, slots});
  }
  // Notify under the lock: once shutdown sees the count drop, the fleet may
  // be destroyed, condition variable included.
  std::lock_guard<std::mutex> lk(t.flight_mu);
  --t.in_flight;
  t.flight_cv.notify_all();
}

void FleetServer::mirror_aged(Tenant& t) {
  const TenantCounters c = queue_.counters(t.index);
  if (c.aged > t.aged_seen) {
    t.aged->inc(c.aged - t.aged_seen);
    t.aged_seen = c.aged;
  }
}

void FleetServer::maybe_keep_exemplar(
    Tenant& t, const std::shared_ptr<const ModelEntry>& entry,
    const Hyperclustering& hc, const Profile& profile,
    std::int64_t dispatch_ns) {
  {
    // A racing insertion (a pipelined tenant finishes two batches at once)
    // only makes this early-out conservative; the insertion below re-sorts
    // and trims under the lock.
    std::lock_guard<std::mutex> lk(t.trace_mu);
    if (t.exemplars.size() >= static_cast<std::size_t>(kProfileExemplars) &&
        profile.wall_ms <= t.exemplars.back().wall_ms) {
      return;  // faster than every retained exemplar — the common case
    }
  }
  TailExemplar ex;
  ex.wall_ms = profile.wall_ms;
  ex.dispatch_ns = dispatch_ns;
  ex.profile = profile;
  ex.entry = entry;
  prof::AnalyzeOptions aopts;
  aopts.top_ops = 8;
  aopts.what_if_ops = 2;
  ex.report = prof::analyze(entry->compiled.graph, hc, profile,
                            aopts);  // outside the lock: O(tasks) walk
  std::lock_guard<std::mutex> lk(t.trace_mu);
  t.exemplars.push_back(std::move(ex));
  std::sort(t.exemplars.begin(), t.exemplars.end(),
            [](const TailExemplar& a, const TailExemplar& b) {
              return a.wall_ms > b.wall_ms;
            });
  if (t.exemplars.size() > static_cast<std::size_t>(kProfileExemplars)) {
    t.exemplars.resize(static_cast<std::size_t>(kProfileExemplars));
  }
  // Gauges always describe the worst batch seen so far.
  prof::publish(t.exemplars.front().report);
}

std::vector<TailExemplar> FleetServer::tail_exemplars(
    const std::string& model) const {
  Tenant* t = find(model);
  RAMIEL_CHECK(t != nullptr, str_cat("unknown model '", model, "'"));
  std::lock_guard<std::mutex> lk(t->trace_mu);
  return t->exemplars;
}

void FleetServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  queue_.close();
  if (shared_dispatcher_.joinable()) shared_dispatcher_.join();

  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (auto& t : tenants_) all.push_back(t.get());
  }
  // Joining the dispatchers IS the drain: pop loops keep serving admitted
  // requests after close() and only see kClosed once empty.
  for (Tenant* t : all) {
    if (t->dispatcher.joinable()) t->dispatcher.join();
  }
  // A pipelined tenant's dispatcher leaves up to one batch in flight; wait
  // for its finish().
  for (Tenant* t : all) {
    std::unique_lock<std::mutex> lk(t->flight_mu);
    t->flight_cv.wait(lk, [&] { return t->in_flight == 0; });
  }
  for (Tenant* t : all) t->stats->freeze();
}

FleetServer::Tenant* FleetServer::find(const std::string& name) const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  auto it = index_.find(name);
  return it == index_.end()
             ? nullptr
             : tenants_[static_cast<std::size_t>(it->second)].get();
}

FleetServer::Tenant& FleetServer::tenant(int index) const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  return *tenants_[static_cast<std::size_t>(index)];
}

std::vector<std::string> FleetServer::models() const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  std::vector<std::string> names;
  for (const auto& t : tenants_) {
    if (index_.count(t->name) != 0) names.push_back(t->name);
  }
  return names;
}

int FleetServer::model_version(const std::string& model) const {
  return registry_.version(model);
}

int FleetServer::num_tenants() const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  return static_cast<int>(index_.size());
}

TenantCounters FleetServer::tenant_counters(const std::string& model) const {
  Tenant* t = find(model);
  RAMIEL_CHECK(t != nullptr, str_cat("unknown model '", model, "'"));
  return queue_.counters(t->index);
}

ServerStats FleetServer::tenant_stats(const std::string& model) const {
  Tenant* t = find(model);
  RAMIEL_CHECK(t != nullptr, str_cat("unknown model '", model, "'"));
  return t->stats->snapshot();
}

ServerStats FleetServer::tenant_window_stats(const std::string& model) const {
  Tenant* t = find(model);
  RAMIEL_CHECK(t != nullptr, str_cat("unknown model '", model, "'"));
  return t->stats->window_snapshot();
}

std::vector<TenantReport> FleetServer::report() {
  std::vector<Tenant*> live;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (const auto& t : tenants_) {
      if (index_.count(t->name) != 0) live.push_back(t.get());
    }
  }
  std::vector<TenantReport> out;
  out.reserve(live.size());
  for (Tenant* t : live) {
    TenantReport r;
    r.name = t->name;
    {
      std::lock_guard<std::mutex> lk(t->exec_mu);
      r.version = t->entry->version;
      r.executor = t->entry->executor;
      r.pipeline_stages = t->pipeline_stages;
      r.modeled_pipeline_speedup = t->modeled_speedup;
    }
    r.stats = t->stats->window_snapshot();
    r.admission = queue_.counters(t->index);
    out.push_back(std::move(r));
  }
  return out;
}

std::string FleetServer::stats_json() {
  using obs::json_number;
  using obs::json_quote;
  std::string doc = "[";
  const std::vector<TenantReport> reports = report();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TenantReport& r = reports[i];
    if (i != 0) doc += ",";
    doc += "{\"model\":" + json_quote(r.name);
    doc += ",\"version\":" + std::to_string(r.version);
    doc += ",\"executor\":" + json_quote(to_string(r.executor));
    doc += ",\"pipeline_stages\":" + std::to_string(r.pipeline_stages);
    doc += ",\"modeled_pipeline_speedup\":" +
           json_number(r.modeled_pipeline_speedup);
    doc += ",\"admitted\":" + std::to_string(r.admission.admitted);
    doc += ",\"rejected_quota\":" + std::to_string(r.admission.rejected_quota);
    doc += ",\"rejected_full\":" + std::to_string(r.admission.rejected_full);
    doc += ",\"aged\":" + std::to_string(r.admission.aged);
    doc += ",\"window_p50_ms\":" + json_number(r.stats.window_latency.p50_ms);
    doc += ",\"window_p95_ms\":" + json_number(r.stats.window_latency.p95_ms);
    doc += ",\"window_p99_ms\":" + json_number(r.stats.window_latency.p99_ms);
    doc += ",\"stats\":" + r.stats.to_json();
    doc += "}";
  }
  doc += "]";
  return doc;
}

void FleetServer::append_trace(obs::Timeline& timeline) const {
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (const auto& t : tenants_) all.push_back(t.get());
  }
  TailExemplar slowest;  // copied out: the dispatchers keep replacing them
  for (Tenant* t : all) {
    const int pid = kTenantPidBase + t->index;
    timeline.process_name(pid, str_cat("tenant:", t->name));
    timeline.thread_name(pid, 0, "dispatch");
    std::lock_guard<std::mutex> lk(t->trace_mu);
    for (const BatchSpan& s : t->spans) {
      timeline.span(
          "batch", "dispatch", pid, 0, s.start_ns, s.end_ns,
          {obs::Timeline::Arg{"real", s.real},
           obs::Timeline::Arg{"slots", s.slots},
           obs::Timeline::Arg{"fill", static_cast<double>(s.real) /
                                          static_cast<double>(s.slots)}});
    }
    if (!t->exemplars.empty() &&
        t->exemplars.front().wall_ms > slowest.wall_ms) {
      slowest = t->exemplars.front();
    }
  }
  if (slowest.entry) {
    const auto critical = slowest.report.critical_tasks();
    slowest.profile.to_timeline(slowest.entry->compiled.graph, timeline, 0,
                                &critical);
  }
}

}  // namespace ramiel::serve::fleet

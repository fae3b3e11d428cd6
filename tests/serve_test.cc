// Serving tests (`ctest -L serve`): the one-tenant request queue, the stats
// collector, and the single-model server — a one-tenant fleet::FleetServer
// on a partitioned pool, the set-up tools/ramiel_serve runs. The FleetQueue
// cases pin the blocking pop, the non-blocking take and who a push wakes.
// The Batcher cases pin the work-conserving batch fill: requests queued
// while a batch runs leave together up to the batch size, a lone request
// leaves at once as a 1-sample short run, and close drains. The Server
// cases pin correctness at every batch size, admission (malformed inputs
// are refused at submit) and failure isolation end to end.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/shape_inference.h"
#include "models/zoo.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "serve/fleet/fleet_server.h"
#include "serve/loadgen.h"
#include "support/string_util.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace serve {
namespace {

Request make_request(float payload) {
  Request r;
  r.inputs.emplace("x", Tensor::scalar(payload));
  return r;
}

float request_payload(const Request& r) { return r.inputs.at("x").at(0); }

// ---------------------------------------------------------------- queue --
// The single-model server's queue is a one-tenant fleet::FleetQueue.

using fleet::FleetQueue;
using fleet::TenantOptions;

/// A one-tenant queue of the given depth with no quota.
int one_tenant_queue(FleetQueue& q, std::size_t depth) {
  TenantOptions options;
  options.queue_depth = depth;
  return q.add_tenant("m", options);
}

/// Blocking pop from one tenant.
FleetQueue::PopResult pop_from(FleetQueue& q, int tenant, Request* out) {
  return q.pop(&tenant, out);
}

TEST(FleetQueue, OneTenantFifoWithinDepth) {
  FleetQueue q;
  const int t = one_tenant_queue(q, 4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.try_push(t, make_request(static_cast<float>(i)), 0),
              FleetQueue::Admit::kOk);
  }
  EXPECT_EQ(q.tenant_depth(t), 3u);
  Request out;
  ASSERT_EQ(pop_from(q, t, &out), FleetQueue::PopResult::kItem);
  EXPECT_EQ(request_payload(out), 0.0f);
  // take() hands out the rest oldest first, up to what was asked.
  std::vector<Request> rest;
  EXPECT_EQ(q.take(t, 1, &rest), 1u);
  EXPECT_EQ(q.take(t, 8, &rest), 1u);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(request_payload(rest[0]), 1.0f);
  EXPECT_EQ(request_payload(rest[1]), 2.0f);
  EXPECT_EQ(q.tenant_depth(t), 0u);
}

TEST(FleetQueue, OneTenantRefusedRequestStaysWithCaller) {
  FleetQueue q;
  const int t = one_tenant_queue(q, 2);
  EXPECT_EQ(q.try_push(t, make_request(1.0f), 0), FleetQueue::Admit::kOk);
  EXPECT_EQ(q.try_push(t, make_request(2.0f), 0), FleetQueue::Admit::kOk);
  Request extra = make_request(3.0f);
  EXPECT_EQ(q.try_push(t, std::move(extra), 0), FleetQueue::Admit::kFull);
  // Admission control must not consume the refused request: the caller
  // still owns it and fulfils its promise with a rejection.
  EXPECT_EQ(request_payload(extra), 3.0f);
  extra.promise.set_value(Response{});  // still usable
}

TEST(FleetQueue, OneTenantTakeFromEmptyReturnsAtOnce) {
  FleetQueue q;
  const int t = one_tenant_queue(q, 2);
  std::vector<Request> out;
  EXPECT_EQ(q.take(t, 4, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(FleetQueue, OneTenantCloseDrainsThenReportsClosed) {
  FleetQueue q;
  const int t = one_tenant_queue(q, 4);
  EXPECT_EQ(q.try_push(t, make_request(7.0f), 0), FleetQueue::Admit::kOk);
  q.close();
  // No admission after close.
  EXPECT_EQ(q.try_push(t, make_request(8.0f), 0), FleetQueue::Admit::kClosed);
  Request out;
  // Queued work is still delivered, then the queue reports closed.
  ASSERT_EQ(pop_from(q, t, &out), FleetQueue::PopResult::kItem);
  EXPECT_EQ(request_payload(out), 7.0f);
  EXPECT_EQ(pop_from(q, t, &out), FleetQueue::PopResult::kClosed);
}

TEST(FleetQueue, OneTenantCloseWakesBlockedConsumer) {
  FleetQueue q;
  const int t = one_tenant_queue(q, 2);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  Request out;
  // Returns once closed rather than blocking for good.
  EXPECT_EQ(pop_from(q, t, &out), FleetQueue::PopResult::kClosed);
  closer.join();
}

TEST(FleetQueue, PushWakesItsOwnTenantsWaiter) {
  // Two waiters block in pop() on two different tenants. Each round pushes
  // to one tenant, and that tenant's waiter must return: a push that woke
  // the other tenant's waiter instead would leave the request sitting with
  // nobody awake to take it.
  FleetQueue q;
  const int tenants[2] = {one_tenant_queue(q, 8), one_tenant_queue(q, 8)};
  std::promise<float> got[2];
  std::mutex mu;
  std::future<float> next[2] = {got[0].get_future(), got[1].get_future()};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 2; ++w) {
    waiters.emplace_back([&, w] {
      Request r;
      while (pop_from(q, tenants[w], &r) == FleetQueue::PopResult::kItem) {
        std::lock_guard<std::mutex> lk(mu);
        got[w].set_value(request_payload(r));
        got[w] = std::promise<float>();
        next[w] = got[w].get_future();
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    constexpr int kOrder[8] = {0, 1, 1, 0, 0, 1, 0, 1};
    const int w = kOrder[round];
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // both wait
    std::future<float> mine;
    {
      std::lock_guard<std::mutex> lk(mu);
      mine = std::move(next[w]);
    }
    ASSERT_EQ(q.try_push(tenants[w], make_request(static_cast<float>(round)),
                         0),
              FleetQueue::Admit::kOk);
    ASSERT_EQ(mine.wait_for(std::chrono::seconds(1)),
              std::future_status::ready)
        << "round " << round << ": tenant " << w << "'s waiter slept";
    EXPECT_EQ(mine.get(), static_cast<float>(round));
  }
  q.close();
  for (std::thread& t : waiters) t.join();
}

// -------------------------------------------------------------- batcher --

using fleet::FleetConfig;
using fleet::FleetOptions;
using fleet::FleetServer;

/// One-tenant config named "m" as ramiel_serve builds it.
FleetConfig one_tenant(const std::string& model, int batch) {
  FleetConfig config = fleet::single_tenant_config("m");
  config.models[0].model = model;
  config.models[0].batch = batch;
  return config;
}

/// one_tenant() on a shared pool behind a first tenant "blocker"
/// (squeezenet, batch 1) for oracle::serve_behind.
FleetConfig behind_blocker(const std::string& model, int batch) {
  FleetConfig config = one_tenant(model, batch);
  config.pool = "shared";
  fleet::ModelConfig blocker;
  blocker.name = "blocker";
  blocker.model = "squeezenet";
  blocker.batch = 1;
  config.models.insert(config.models.begin(), blocker);
  return config;
}

/// "double": y = 2 * x for x of shape [1, 1] — tags each response with its
/// request's payload so batch membership is visible.
Graph doubling_graph() {
  Graph g("double");
  ValueId in = g.add_value("x", Shape{1, 1});
  g.mark_input(in);
  ValueId k = g.add_initializer("k", Tensor::full(Shape{1, 1}, 2.0f));
  NodeId m = g.add_node(OpKind::kMul, "m", {in, k});
  g.mark_output(g.node(m).outputs[0]);
  infer_shapes(g);
  return g;
}

/// "double" from doubling_graph(), every other spec from the zoo.
Graph double_or_zoo(const std::string& spec) {
  return spec == "double" ? doubling_graph() : models::build(spec);
}

TensorMap payload(float v) {
  TensorMap m;
  m.emplace("x", Tensor::full(Shape{1, 1}, v));
  return m;
}

float doubled(const Response& r) { return r.outputs.begin()->second.at(0); }

TEST(Batcher, RequestsQueuedDuringARunLeaveTogether) {
  // Six requests queue while another batch runs: the next batch takes the
  // first four at once (what is queued, not what might come), and the two
  // left over leave together after it.
  FleetServer server(behind_blocker("double", 4), FleetOptions{},
                     double_or_zoo);
  std::vector<TensorMap> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(payload(static_cast<float>(i)));
  const std::vector<Response> got =
      oracle::serve_behind(server, "blocker", "m", samples);
  ASSERT_EQ(got.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const Response& r = got[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_real, i < 4 ? 4 : 2) << "request " << i;
    EXPECT_EQ(r.batch_slots, 4);
    EXPECT_EQ(doubled(r), 2.0f * static_cast<float>(i));
  }
}

TEST(Batcher, LoneRequestLeavesAtOnce) {
  // A request at an idle tenant is a batch by itself: a 1-sample short run
  // that leaves as soon as it is popped, never held for batch-mates.
  FleetServer server(one_tenant("double", 4), FleetOptions{},
                     double_or_zoo);
  const Response r = server.submit("m", payload(1.0f)).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.batch_real, 1);
  EXPECT_EQ(r.batch_slots, 4);
  EXPECT_EQ(doubled(r), 2.0f);
}

TEST(Batcher, ReportsCloseOnlyWhenDrained) {
  // A request still queued behind a running batch when shutdown() closes
  // the queue is served, not dropped; only then does the dispatcher report
  // closed and exit.
  FleetServer server(behind_blocker("double", 4), FleetOptions{},
                     double_or_zoo);
  const TensorMap hold_input = testing::example_inputs(
      server.model_entry("blocker")->compiled.graph, 1, 3)[0];
  auto hold = server.submit("blocker", TensorMap(hold_input));
  auto fut = server.submit("m", payload(3.0f));
  server.shutdown();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(hold.get().ok);
  const Response r = fut.get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.batch_real, 1);
  EXPECT_EQ(doubled(r), 6.0f);
  EXPECT_EQ(server.tenant_stats("m").served, 1u);
}

// ---------------------------------------------------------------- stats --

TEST(Stats, PercentilesAreOrderedAndFillIsExact) {
  StatsCollector c;
  for (int i = 1; i <= 100; ++i) {
    c.on_submit();
    c.on_served(static_cast<double>(i));
  }
  Profile profile;
  profile.wall_ms = 10.0;
  profile.workers = {WorkerProfile{/*busy_ns=*/5'000'000, 0, 1, 0},
                     WorkerProfile{/*busy_ns=*/5'000'000, 0, 1, 0}};
  c.on_batch(/*real=*/3, /*slots=*/4, profile);
  const ServerStats s = c.snapshot();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(s.served, 100u);
  EXPECT_NEAR(s.latency.p50_ms, 50.5, 1.0);
  EXPECT_LE(s.latency.p50_ms, s.latency.p95_ms);
  EXPECT_LE(s.latency.p95_ms, s.latency.p99_ms);
  EXPECT_LE(s.latency.p99_ms, s.latency.max_ms);
  EXPECT_DOUBLE_EQ(s.latency.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.batch_fill(), 0.75);
  // 2 workers x 10 ms wall, 10 ms total busy -> 50% utilization.
  EXPECT_NEAR(s.worker_utilization(), 0.5, 1e-9);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Stats, WindowSnapshotIsExactAndResets) {
  StatsCollector c;
  for (int i = 1; i <= 1000; ++i) {
    c.on_submit();
    c.on_served(static_cast<double>(i));
  }
  const ServerStats w1 = c.window_snapshot();
  EXPECT_EQ(w1.window_served, 1000u);
  // Exact order statistics over the window, not histogram-quantized: for
  // 1..1000 the percentile of rank k is exactly k.
  EXPECT_DOUBLE_EQ(w1.window_latency.p50_ms, 500.5);
  EXPECT_NEAR(w1.window_latency.p99_ms, 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(w1.window_latency.max_ms, 1000.0);
  // Cumulative stats ride along unchanged.
  EXPECT_EQ(w1.served, 1000u);

  // The snapshot consumed the window; the next one starts empty...
  const ServerStats w2 = c.window_snapshot();
  EXPECT_EQ(w2.window_served, 0u);
  EXPECT_DOUBLE_EQ(w2.window_latency.p99_ms, 0.0);
  EXPECT_EQ(w2.served, 1000u);  // ...but cumulative totals persist.

  // ...and covers only what arrived since.
  c.on_submit();
  c.on_served(42.0);
  const ServerStats w3 = c.window_snapshot();
  EXPECT_EQ(w3.window_served, 1u);
  EXPECT_DOUBLE_EQ(w3.window_latency.p99_ms, 42.0);

  // Plain snapshot() never consumes the window.
  c.on_submit();
  c.on_served(7.0);
  (void)c.snapshot();
  const ServerStats w4 = c.window_snapshot();
  EXPECT_EQ(w4.window_served, 1u);
}

// --------------------------------------------------------------- server --

/// Reference outputs computed by the sequential executor on a second copy
/// of the model.
std::vector<TensorMap> reference_outputs(const std::string& model,
                                         const std::vector<TensorMap>& in) {
  Graph g = models::build(model);
  SequentialExecutor seq(&g);
  std::vector<TensorMap> out;
  for (const TensorMap& sample : in) out.push_back(seq.run({sample})[0]);
  return out;
}

/// Example inputs matching the tenant's compiled graph.
std::vector<TensorMap> tenant_inputs(const FleetServer& server, int n,
                                     unsigned seed) {
  return testing::example_inputs(server.model_entry("m")->compiled.graph, n,
                                 seed);
}

TEST(Server, ServesSingleRequestMatchingSequential) {
  FleetServer server(one_tenant("squeezenet", 1), FleetOptions{});
  auto inputs = tenant_inputs(server, 1, 21);
  Response resp = server.submit("m", TensorMap(inputs[0])).get();
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_GT(resp.latency_ms, 0.0);
  oracle::expect_bit_identical(reference_outputs("squeezenet", inputs),
                               {resp.outputs});
}

TEST(Server, BatchedResponsesMatchPerRequestInputs) {
  // 12 distinct requests through a batch-4 tenant: every response must
  // correspond to ITS request's input, not a batch-mate's. Queued behind
  // another batch, they leave as three full batches.
  FleetServer server(behind_blocker("squeezenet", 4), FleetOptions{});
  auto inputs = tenant_inputs(server, 12, 22);
  const std::vector<Response> got =
      oracle::serve_behind(server, "blocker", "m", inputs);
  ASSERT_EQ(got.size(), 12u);
  std::vector<TensorMap> outputs;
  for (const Response& r : got) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_real, 4);
    outputs.push_back(r.outputs);
  }
  oracle::expect_bit_identical(reference_outputs("squeezenet", inputs),
                               outputs);
}

TEST(Server, EveryBatchSizeMatchesTheOracle) {
  // A batch of n = 1..4 requests (n queued behind another batch) answers
  // each request exactly as the f32 sequential run does.
  FleetServer server(behind_blocker("squeezenet", 4), FleetOptions{});
  const auto inputs = tenant_inputs(server, 4, 28);
  const auto reference = reference_outputs("squeezenet", inputs);
  for (std::size_t n = 1; n <= inputs.size(); ++n) {
    SCOPED_TRACE(str_cat("batch of ", n));
    const std::vector<TensorMap> samples(inputs.begin(), inputs.begin() + n);
    const std::vector<Response> got =
        oracle::serve_behind(server, "blocker", "m", samples);
    ASSERT_EQ(got.size(), n);
    std::vector<TensorMap> outputs;
    for (const Response& r : got) {
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.batch_real, static_cast<int>(n));
      outputs.push_back(r.outputs);
    }
    oracle::expect_bit_identical(
        std::vector<TensorMap>(reference.begin(), reference.begin() + n),
        outputs);
  }
}

TEST(Server, PartialBatchFlushBoundsLatency) {
  // One lonely request into a batch-4 server leaves at once as a 1-sample
  // short run: its latency is its own run, not a wait for batch-mates.
  FleetServer server(one_tenant("squeezenet", 4), FleetOptions{});
  auto inputs = tenant_inputs(server, 1, 23);
  std::future<Response> fut = server.submit("m", TensorMap(inputs[0]));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  Response resp = fut.get();
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.batch_real, 1);
  EXPECT_EQ(resp.batch_slots, 4);
  server.shutdown();
  EXPECT_DOUBLE_EQ(server.tenant_stats("m").batch_fill(), 0.25);
}

TEST(Server, SaturationRejectsPromptlyAndKeepsServing) {
  // Offered load far beyond a depth-2 queue: excess submissions resolve
  // immediately with a rejection (bounded queue, no unbounded growth), all
  // accepted requests complete, and the server still serves afterwards.
  FleetConfig config = one_tenant("squeezenet", 2);
  config.models[0].queue_depth = 2;
  FleetServer server(config, FleetOptions{});
  auto inputs = tenant_inputs(server, 1, 24);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.submit("m", TensorMap(inputs[0])));
  }
  int ok = 0, rejected = 0;
  for (auto& fut : futures) {
    Response resp = fut.get();  // every future resolves — nothing hangs
    if (resp.ok) {
      ++ok;
    } else {
      ++rejected;
      EXPECT_NE(resp.error.find("queue full"), std::string::npos)
          << resp.error;
    }
  }
  EXPECT_EQ(ok + rejected, 64);
  EXPECT_GT(rejected, 0);  // admission control actually engaged
  EXPECT_GT(ok, 0);        // and accepted work was served

  // The server survived saturation: a fresh request still succeeds.
  Response after = server.submit("m", TensorMap(inputs[0])).get();
  EXPECT_TRUE(after.ok) << after.error;
  const ServerStats stats = server.tenant_stats("m");
  EXPECT_EQ(stats.submitted, 65u);
  EXPECT_EQ(stats.served + stats.rejected, stats.submitted);
}

TEST(Server, SubmitAfterShutdownIsRejectedNotHung) {
  FleetServer server(one_tenant("squeezenet", 2), FleetOptions{});
  auto inputs = tenant_inputs(server, 1, 25);
  server.shutdown();
  Response resp = server.submit("m", TensorMap(inputs[0])).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("shut down"), std::string::npos) << resp.error;
}

TEST(Server, ShutdownDrainsAcceptedRequests) {
  auto server = std::make_unique<FleetServer>(
      one_tenant("squeezenet", 4), FleetOptions{});
  auto inputs = tenant_inputs(*server, 1, 26);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server->submit("m", TensorMap(inputs[0])));
  }
  server->shutdown();  // must serve all 6 accepted requests first
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().ok);
  }
}

/// squeezenet plus a lookup its requests drive: the extra output is
/// table[i] for the extra input i, one index into a 4-entry table. An index
/// past the table passes every submit-time check (name, shape and dtype
/// are right) and fails the run on its value.
Graph lookup_or_zoo(const std::string& spec) {
  if (spec != "lookup") return models::build(spec);
  Graph g = models::build("squeezenet");
  ValueId i = g.add_value("i", Shape{1});
  g.mark_input(i);
  ValueId table = g.add_initializer("table", Tensor::vec({1, 2, 3, 4}));
  NodeId pick = g.add_node(OpKind::kGather, "pick", {table, i});
  g.mark_output(g.node(pick).outputs[0]);
  infer_shapes(g);
  return g;
}

TEST(Server, ExecutionFailurePoisonsBatchButNotServer) {
  // A request whose lookup index is out of range fails inside the runtime:
  // its batch-mate shares the error, the tenant keeps serving, and the next
  // requests are served bit-identical to the sequential executor. Over both
  // pools and both runtimes — the executor and the stage pipeline, whose
  // flights fail on a stage thread.
  for (const std::string pool : {"partitioned", "shared"}) {
    for (const int stages : {1, 3}) {
      SCOPED_TRACE(pool + " pool, " + std::to_string(stages) + " stage(s)");
      FleetConfig config = one_tenant("lookup", 2);
      config.pool = pool;
      config.models[0].pipeline_stages = stages;
      FleetServer server(config, FleetOptions{}, lookup_or_zoo);
      const auto inputs = tenant_inputs(server, 3, 27);
      TensorMap bad = inputs[0];
      bad.at("i") = Tensor::vec({99});

      // The mate submitted right behind the bad request shares its batch
      // when it is queued before the idle tenant's batch is filled: send
      // the pair until it did, keeping every response for the counts.
      std::vector<Response> responses;
      bool paired = false;
      for (int attempt = 0; attempt < 50 && !paired; ++attempt) {
        auto bad_future = server.submit("m", TensorMap(bad));
        auto mate_future = server.submit("m", TensorMap(inputs[0]));
        const Response bad_response = bad_future.get();
        const Response mate_response = mate_future.get();
        EXPECT_FALSE(bad_response.ok);
        EXPECT_NE(bad_response.error.find("execution failed"),
                  std::string::npos)
            << bad_response.error;
        paired = bad_response.batch_real == 2;
        EXPECT_EQ(mate_response.batch_real, bad_response.batch_real);
        EXPECT_EQ(mate_response.ok, !paired) << mate_response.error;
        if (paired) {
          EXPECT_NE(mate_response.error.find("execution failed"),
                    std::string::npos)
              << mate_response.error;
        }
        responses.push_back(bad_response);
        responses.push_back(mate_response);
      }
      ASSERT_TRUE(paired) << "the mate never shared the bad request's batch";

      auto good1 = server.submit("m", TensorMap(inputs[1]));
      auto good2 = server.submit("m", TensorMap(inputs[2]));
      SequentialExecutor seq(&server.model_entry("m")->compiled.graph);
      int sample = 1;
      for (Response r : {good1.get(), good2.get()}) {
        ASSERT_TRUE(r.ok) << r.error;
        oracle::expect_bit_identical(
            seq.run({inputs[static_cast<std::size_t>(sample++)]}),
            {r.outputs});
        responses.push_back(r);
      }
      server.shutdown();
      // Each batch of n requests answers n responses of batch_real n.
      std::uint64_t served = 0, failed = 0;
      double batches = 0.0;
      for (const Response& r : responses) {
        ++(r.ok ? served : failed);
        batches += 1.0 / r.batch_real;
      }
      const ServerStats stats = server.tenant_stats("m");
      EXPECT_EQ(stats.failed, failed);
      EXPECT_EQ(stats.served, served);
      EXPECT_EQ(static_cast<double>(stats.batches), batches);
    }
  }
}

TEST(Server, ClosedLoopLoadAllServed) {
  FleetConfig config = one_tenant("squeezenet", 4);
  config.models[0].hyper = HyperMode::kSwitched;
  FleetServer server(config, FleetOptions{});
  LoadOptions load;
  load.clients = 4;
  load.requests = 24;
  const LoadReport report = run_closed_loop(
      [&server](TensorMap in) { return server.submit("m", std::move(in)); },
      server.model_entry("m")->compiled.graph, load);
  server.shutdown();
  EXPECT_EQ(report.completed, 24);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.achieved_rps, 0.0);
  EXPECT_EQ(server.tenant_stats("m").served, 24u);
}

TEST(Server, EnvOverridesConfigureDefaults) {
  // Unset, the one-tenant defaults are the single-model server's.
  for (const char* var :
       {"RAMIEL_SERVE_QUEUE_DEPTH", "RAMIEL_INTRA_OP_THREADS",
        "RAMIEL_EXECUTOR", "RAMIEL_DTYPE", "RAMIEL_MEM_PLAN",
        "RAMIEL_AUTO_STEAL_CV"}) {
    ::unsetenv(var);
  }
  const FleetConfig base = fleet::single_tenant_config("m");
  const FleetOptions base_opts = fleet::single_tenant_options();
  EXPECT_EQ(base.pool, "partitioned");
  ASSERT_EQ(base.models.size(), 1u);
  EXPECT_EQ(base.models[0].name, "m");
  EXPECT_EQ(base.models[0].batch, 4);
  EXPECT_EQ(base.models[0].queue_depth, 256);
  EXPECT_EQ(base.models[0].executor, ExecutorKind::kStatic);
  EXPECT_EQ(base.models[0].dtype, DType::kF32);
  EXPECT_EQ(base_opts.intra_op_threads, 1);
  EXPECT_TRUE(base_opts.mem_plan);
  EXPECT_DOUBLE_EQ(base_opts.auto_steal_cv, 0.35);
  EXPECT_TRUE(base_opts.profile);

  // Set, the deployment overrides win.
  ::setenv("RAMIEL_SERVE_QUEUE_DEPTH", "3", 1);
  ::setenv("RAMIEL_INTRA_OP_THREADS", "2", 1);
  ::setenv("RAMIEL_EXECUTOR", "auto", 1);
  ::setenv("RAMIEL_DTYPE", "f16", 1);
  ::setenv("RAMIEL_MEM_PLAN", "off", 1);
  ::setenv("RAMIEL_AUTO_STEAL_CV", "0.5", 1);
  const FleetConfig config = fleet::single_tenant_config("m");
  const FleetOptions opts = fleet::single_tenant_options();
  for (const char* var :
       {"RAMIEL_SERVE_QUEUE_DEPTH", "RAMIEL_INTRA_OP_THREADS",
        "RAMIEL_EXECUTOR", "RAMIEL_DTYPE", "RAMIEL_MEM_PLAN",
        "RAMIEL_AUTO_STEAL_CV"}) {
    ::unsetenv(var);
  }
  EXPECT_EQ(config.models[0].queue_depth, 3);
  EXPECT_EQ(config.models[0].executor, ExecutorKind::kAuto);
  EXPECT_EQ(config.models[0].dtype, DType::kF16);
  EXPECT_EQ(opts.intra_op_threads, 2);
  EXPECT_FALSE(opts.mem_plan);
  EXPECT_DOUBLE_EQ(opts.auto_steal_cv, 0.5);
}

}  // namespace
}  // namespace serve
}  // namespace ramiel

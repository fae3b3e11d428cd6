#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "models/zoo.h"
#include "oracle.h"
#include "passes/linear_clustering.h"
#include "ramiel/pipeline.h"
#include "rt/doorbell.h"
#include "rt/executor.h"
#include "rt/inputs.h"
#include "support/string_util.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace ramiel {
namespace {

TEST(SequentialExecutor, RunsDiamond) {
  Graph g = testing::make_diamond_graph();
  auto inputs = testing::example_inputs(g, 1, 1);
  SequentialExecutor exec(&g);
  auto out = exec.run(inputs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 1u);
  // Independently compute: d = sigmoid(relu(x)) + tanh(relu(x)).
  Tensor r = relu(inputs[0].at("x"));
  Tensor expected = add(sigmoid(r), tanh_op(r));
  EXPECT_TRUE(allclose(out[0].begin()->second, expected, 1e-5f, 1e-5f));
}

TEST(SequentialExecutor, BatchRunsSamplesIndependently) {
  Graph g = testing::make_diamond_graph();
  auto inputs = testing::example_inputs(g, 3, 2);
  SequentialExecutor exec(&g);
  auto batched = exec.run(inputs);
  for (int s = 0; s < 3; ++s) {
    auto single = exec.run({inputs[static_cast<std::size_t>(s)]});
    oracle::expect_bit_identical({batched[static_cast<std::size_t>(s)]},
                                 single);
  }
}

TEST(SequentialExecutor, ProfileAccountsForAllTasks) {
  Graph g = testing::make_diamond_graph();
  auto inputs = testing::example_inputs(g, 1, 3);
  SequentialExecutor exec(&g);
  const Profile profile = testing::traced_run(exec, inputs);
  ASSERT_EQ(profile.workers.size(), 1u);
  EXPECT_EQ(profile.workers[0].tasks, 4);
  EXPECT_EQ(profile.events.size(), 4u);
  EXPECT_GT(profile.wall_ms, 0.0);
}

TEST(ParallelExecutor, MatchesSequentialOnDiamond) {
  oracle::check({"diamond", testing::make_diamond_graph}, {oracle::Cell{}});
}

TEST(ParallelExecutor, HandlesConstantNodes) {
  oracle::check({"const_side", testing::make_const_side_graph},
                {oracle::Cell{}});
}

class ParallelEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelEquivalence, ParallelMatchesSequential) {
  oracle::check(oracle::zoo(GetParam()), {oracle::Cell{}});
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelEquivalence,
                         ::testing::Values("squeezenet", "googlenet",
                                           "yolo_v5", "bert"));

TEST(ParallelExecutor, HyperclusterBatch2MatchesSequential) {
  oracle::check(oracle::zoo("squeezenet"), oracle::cells({.batches = {2}}));
}

TEST(ParallelExecutor, SwitchedHyperclusterMatchesSequential) {
  oracle::check(oracle::zoo("squeezenet"),
                oracle::cells({.batches = {2, 3, 4},
                               .hypers = {HyperMode::kSwitched}}));
}

TEST(ParallelExecutor, IntraOpThreadsPreserveResults) {
  oracle::check(oracle::zoo("googlenet"), oracle::cells({.intra_op = {4}}));
}

TEST(ParallelExecutor, RejectsWrongBatchSize) {
  // A run takes 1 to batch samples: 0 and batch + 1 are rejected up front
  // with an explanatory message, before any worker touches the inputs.
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g, 2);
  Rng rng(10);
  ParallelExecutor par(&g, hc);
  for (int n : {0, 3}) {
    SCOPED_TRACE(str_cat(n, " samples"));
    try {
      par.run(n == 0 ? std::vector<TensorMap>{}
                     : make_example_inputs(g, n, rng));
      FAIL() << "expected batch-size mismatch to throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("batch size mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find("compiled for batch 2"), std::string::npos) << what;
      EXPECT_NE(what.find(str_cat("got ", n, " samples")), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(par.runs_completed(), 0u);
  // The rejected calls must not wedge the persistent workers: a correctly
  // sized batch still runs afterwards.
  auto ok_inputs = make_example_inputs(g, 2, rng);
  EXPECT_EQ(par.run(ok_inputs).size(), 2u);
}

TEST(ParallelExecutor, ReusesWorkersAcrossManyRuns) {
  // Persistent-executor contract: >= 100 consecutive run() calls on one
  // instance, identical outputs every time (the serving loop depends on
  // this — no per-request thread spawn, no state bleeding between runs).
  Graph g = models::build("squeezenet");
  ParallelExecutor par(&g, testing::hypercluster(g));
  auto inputs = testing::example_inputs(g, 1, 40);
  const auto reference = par.run(inputs);
  for (int i = 0; i < 99; ++i) {
    // Same graph, same inputs, same kernels: reuse must not perturb a bit.
    SCOPED_TRACE(str_cat("run ", i));
    oracle::expect_bit_identical(reference, par.run(inputs));
  }
  EXPECT_EQ(par.runs_completed(), 100u);
}

TEST(ParallelExecutor, ReuseSurvivesIntraOpWidthChanges) {
  // The persistent per-worker pools rebuild when the requested intra-op
  // width changes; outputs stay equivalent through the transitions.
  Graph g = testing::make_diamond_graph();
  ParallelExecutor par(&g, testing::hypercluster(g));
  auto inputs = testing::example_inputs(g, 1, 41);
  RunOptions serial, wide;
  wide.intra_op_threads = 3;
  const auto reference = par.run(inputs, serial);
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE(str_cat("run ", i));
    oracle::expect_bit_identical(reference,
                                 par.run(inputs, i % 2 == 0 ? wide : serial));
  }
}

TEST(ParallelExecutor, RecoversAfterFailedRun) {
  // A run that throws (missing input) poisons the inboxes; the next run on
  // the same persistent instance must start from a clean slate.
  Graph g = testing::make_diamond_graph();
  ParallelExecutor par(&g, testing::hypercluster(g));
  std::vector<TensorMap> empty_inputs(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(par.run(empty_inputs), Error) << "iteration " << i;
    auto inputs = testing::example_inputs(g, 1, 42);
    oracle::expect_bit_identical(SequentialExecutor(&g).run(inputs),
                                 par.run(inputs));
  }
}

TEST(ParallelExecutor, ProfileCountsMessagesAndTasks) {
  Graph g = testing::make_diamond_graph();
  Hyperclustering hc = testing::hypercluster(g);
  ParallelExecutor par(&g, hc);
  auto inputs = testing::example_inputs(g, 1, 11);
  const Profile profile = testing::traced_run(par, inputs);
  ASSERT_EQ(profile.workers.size(), 2u);
  int tasks = 0, messages = 0;
  for (const auto& w : profile.workers) {
    tasks += w.tasks;
    messages += w.messages_sent;
  }
  EXPECT_EQ(tasks, 4);
  EXPECT_EQ(messages, 2);  // a->side, side->d
  EXPECT_EQ(profile.events.size(), 4u);
}

TEST(ParallelExecutor, ChromeTraceRenders) {
  Graph g = testing::make_diamond_graph();
  ParallelExecutor par(&g, testing::hypercluster(g));
  auto inputs = testing::example_inputs(g, 1, 12);
  const Profile profile = testing::traced_run(par, inputs);
  const std::string json = profile.to_chrome_trace(g);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("Relu"), std::string::npos);
}

TEST(ParallelExecutor, MissingInputThrows) {
  Graph g = testing::make_diamond_graph();
  ParallelExecutor par(&g, testing::hypercluster(g));
  std::vector<TensorMap> empty_inputs(1);
  EXPECT_THROW(par.run(empty_inputs), Error);
}

TEST(MakeExampleInputs, CoversInputsAndRespectsIdRanges) {
  Graph g = models::build("bert");
  auto inputs = testing::example_inputs(g, 2, 13);
  ASSERT_EQ(inputs.size(), 2u);
  for (const auto& sample : inputs) {
    EXPECT_TRUE(sample.count("input_ids"));
    EXPECT_TRUE(sample.count("token_type_ids"));
    for (float v : sample.at("token_type_ids").data()) {
      EXPECT_TRUE(v == 0.0f || v == 1.0f);
    }
  }
}


TEST(ParallelExecutor, KernelErrorPropagatesWithoutDeadlock) {
  // A mid-graph shape error in one cluster must unwind the whole run (the
  // sibling worker is blocked on a message that will never arrive).
  Graph g("bad");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  // Cluster-crossing consumer that will fail: matmul with mismatched dims.
  ValueId w = g.add_initializer("w", Tensor::zeros(Shape{3, 3}));
  NodeId bad = g.add_node(OpKind::kMatMul, "bad", {g.node(a).outputs[0], w});
  NodeId side = g.add_node(OpKind::kSigmoid, "side", {g.node(a).outputs[0]});
  NodeId join = g.add_node(OpKind::kAdd, "join",
                           {g.node(bad).outputs[0], g.node(side).outputs[0]});
  g.mark_output(g.node(join).outputs[0]);

  Clustering c;
  c.clusters.push_back(Cluster{{a, bad, join}});
  c.clusters.push_back(Cluster{{side}});
  finalize_clustering(g, c);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  auto inputs = testing::example_inputs(g, 1, 3);
  EXPECT_THROW(par.run(inputs), Error);  // and returns promptly
}

TEST(ParallelExecutor, OutOfOrderProduceConsumeIsSafe) {
  // Producer emits v1 early but the consumer cluster needs v2 (produced
  // later) first: tagged inbox delivery must not mismatch (the FIFO hazard
  // raw queues would have).
  Graph g("ooo");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId early = g.add_node(OpKind::kRelu, "early", {in});      // v1
  NodeId mid = g.add_node(OpKind::kSigmoid, "mid", {in});
  NodeId late = g.add_node(OpKind::kTanh, "late",
                           {g.node(mid).outputs[0]});           // v2
  // Consumer cluster: first consumes v2, then v1.
  NodeId use_late = g.add_node(OpKind::kNeg, "use_late",
                               {g.node(late).outputs[0]});
  NodeId use_early = g.add_node(
      OpKind::kAdd, "use_early",
      {g.node(early).outputs[0], g.node(use_late).outputs[0]});
  g.mark_output(g.node(use_early).outputs[0]);

  Clustering c;
  c.clusters.push_back(Cluster{{early, mid, late}});
  c.clusters.push_back(Cluster{{use_late, use_early}});
  finalize_clustering(g, c);
  auto inputs = testing::example_inputs(g, 1, 4);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  oracle::expect_bit_identical(SequentialExecutor(&g).run(inputs),
                               par.run(inputs));
}

TEST(ParallelExecutor, ValueConsumedByManyNodesInRemoteCluster) {
  // One remote value feeding several consumers on the same worker: the
  // message is delivered once and cached locally.
  Graph g("fanin");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  NodeId src = g.add_node(OpKind::kRelu, "src", {in});
  NodeId c1 = g.add_node(OpKind::kSigmoid, "c1", {g.node(src).outputs[0]});
  NodeId c2 = g.add_node(OpKind::kTanh, "c2", {g.node(src).outputs[0]});
  NodeId joined = g.add_node(OpKind::kAdd, "joined",
                             {g.node(c1).outputs[0], g.node(c2).outputs[0]});
  g.mark_output(g.node(joined).outputs[0]);

  Clustering c;
  c.clusters.push_back(Cluster{{src}});
  c.clusters.push_back(Cluster{{c1, c2, joined}});
  finalize_clustering(g, c);
  auto inputs = testing::example_inputs(g, 1, 5);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  Profile profile;
  auto got = par.run(inputs, {}, &profile);
  oracle::expect_bit_identical(SequentialExecutor(&g).run(inputs), got);
  // Exactly one message crossed (src -> worker 1), despite two consumers.
  int messages = 0;
  for (const auto& w : profile.workers) messages += w.messages_sent;
  EXPECT_EQ(messages, 1);
}

TEST(Doorbell, WaitReturnsAtOnceOnStaleEpoch) {
  // A ring between the snapshot and the wait must not be lost.
  rt::Doorbell bell;
  const std::uint64_t seen = bell.epoch();
  bell.ring();
  EXPECT_NE(bell.epoch(), seen);
  EXPECT_EQ(bell.wait(seen), 0);
}

TEST(Doorbell, RingWakesSleepingOwner) {
  rt::Doorbell bell;
  const std::uint64_t seen = bell.epoch();
  std::int64_t blocked_ns = -1;
  std::atomic<bool> ready{false};
  std::thread owner([&] {
    ready.store(true);
    blocked_ns = bell.wait(seen);
  });
  // Ring only once the owner is (about to be) inside wait(), so a slow
  // thread start cannot turn the wait into an immediate return.
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  bell.ring();
  owner.join();
  EXPECT_GT(blocked_ns, 0);
}

TEST(Doorbell, BoundedWaitReturnsWithoutARing) {
  // The steal placement's park: a missed ring costs one bound, not a hang.
  rt::Doorbell bell;
  const std::int64_t blocked_ns =
      bell.wait(bell.epoch(), std::chrono::microseconds(2000));
  EXPECT_GE(blocked_ns, 2'000'000);
  EXPECT_FALSE(bell.sleeping());
}

// ------------------------------------------------------------ containment --

/// A kernel that throws mid-graph on a cross-cluster path: `bad` multiplies
/// x by a [4, 3] weight, so it fails for any x that is not [.., 4], while
/// worker 1 sleeps waiting on `bad`'s output for `tail`. Worker 0 runs a
/// ~1 ms Sigmoid chain over a second input first, so worker 1 is asleep by
/// the time the failure has to wake it. A run with a good x succeeds.
Graph make_fragile_graph(Clustering* clustering) {
  Graph g("fragile");
  ValueId in = g.add_value("x", Shape{1, 4});
  g.mark_input(in);
  ValueId slow_in = g.add_value("y", Shape{1, 1 << 16});
  g.mark_input(slow_in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  std::vector<NodeId> worker0 = {a};
  ValueId slow = slow_in;
  for (int i = 0; i < 16; ++i) {
    worker0.push_back(g.add_node(OpKind::kSigmoid, str_cat("slow", i), {slow}));
    slow = g.node(worker0.back()).outputs[0];
  }
  g.mark_output(slow);
  ValueId w = g.add_initializer("w", Tensor::full(Shape{4, 3}, 0.5f));
  NodeId bad = g.add_node(OpKind::kMatMul, "bad", {g.node(a).outputs[0], w});
  worker0.push_back(bad);
  NodeId side = g.add_node(OpKind::kSigmoid, "side", {g.node(a).outputs[0]});
  NodeId tail = g.add_node(OpKind::kNeg, "tail", {g.node(bad).outputs[0]});
  g.mark_output(g.node(side).outputs[0]);
  g.mark_output(g.node(tail).outputs[0]);
  // Cluster order is stream order: a, the slow chain, then bad.
  clustering->clusters.push_back(Cluster{worker0});
  clustering->clusters.push_back(Cluster{{side, tail}});
  finalize_clustering(g, *clustering);
  return g;
}

struct ContainmentCase {
  ExecutorKind placement;
  bool shared_pool;  // the failing program shares its pool with another
};

void PrintTo(const ContainmentCase& c, std::ostream* os) {
  *os << to_string(c.placement)
      << (c.shared_pool ? ", shared pool" : ", single program");
}

class Containment : public ::testing::TestWithParam<ContainmentCase> {};

TEST_P(Containment, KernelFailureStaysInItsRun) {
  const auto [placement, shared] = GetParam();
  constexpr int kBatch = 2;
  Clustering fragile_clusters;
  Graph fragile = make_fragile_graph(&fragile_clusters);
  const Hyperclustering fragile_hc =
      build_hyperclusters(fragile, fragile_clusters, kBatch);
  Graph other = models::build("squeezenet");
  const Hyperclustering other_hc =
      testing::hypercluster(other, kBatch);

  Rng rng(17);
  const auto good = make_example_inputs(fragile, kBatch, rng);
  auto bad = good;
  bad[1]["x"] = Tensor::full(Shape{1, 5}, 1.0f);  // sample 1 breaks `bad`
  const auto other_inputs = make_example_inputs(other, kBatch, rng);
  const auto other_solo =
      ParallelExecutor(&other, other_hc, nullptr, placement).run(other_inputs);

  std::vector<ExecutorProgram> programs;
  programs.push_back(ExecutorProgram{&fragile, fragile_hc, nullptr});
  if (shared) programs.push_back(ExecutorProgram{&other, other_hc, nullptr});
  ParallelExecutor pool(std::move(programs), placement);

  // The failing dispatch throws, and promptly: no worker waits forever on
  // the output the failed task never produced.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.run_program(0, bad), Error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));

  // The neighbour's next dispatch is untouched by the failure.
  if (shared) {
    oracle::expect_bit_identical(pool.run_program(1, other_inputs),
                                 other_solo);
  }

  // The failing program itself serves its next, good, batch.
  oracle::expect_bit_identical(SequentialExecutor(&fragile).run(good),
                               pool.run_program(0, good));
}

INSTANTIATE_TEST_SUITE_P(
    Placements, Containment,
    ::testing::Values(ContainmentCase{ExecutorKind::kStatic, false},
                      ContainmentCase{ExecutorKind::kStatic, true},
                      ContainmentCase{ExecutorKind::kSteal, false},
                      ContainmentCase{ExecutorKind::kSteal, true}),
    [](const ::testing::TestParamInfo<ContainmentCase>& info) {
      return std::string(to_string(info.param.placement)) +
             (info.param.shared_pool ? "_shared_pool" : "_single_program");
    });

TEST(ParallelExecutor, RejectsALaterProgramWithoutLeakingWorkers) {
  // The first program starts worker threads; the second carries a memory
  // plan for another hyperclustering. The constructor must throw (joining
  // the workers it started), not end the process.
  Graph g = models::build("squeezenet");
  const Hyperclustering hc = testing::hypercluster(g);
  mem::MemPlan wrong;
  wrong.workers.resize(static_cast<std::size_t>(hc.workers.size()) + 1);
  std::vector<ExecutorProgram> programs;
  programs.push_back(ExecutorProgram{&g, hc, nullptr});
  programs.push_back(ExecutorProgram{&g, hc, &wrong});
  EXPECT_THROW(ParallelExecutor(std::move(programs)), Error);
}

// ---------------------------------------------------------- runs in flight --

class RunsInFlight : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(RunsInFlight, FailingRunFailsAloneBesideAGoodRun) {
  // A run that throws (missing input) while good runs of the same program
  // are in flight: only it fails, the good ones stay bit-identical to the
  // oracle, and the next run is clean.
  Graph g = models::build("squeezenet");
  const Hyperclustering hc = testing::hypercluster(g, 2);
  ParallelExecutor exec(&g, hc, nullptr, GetParam());
  const auto good = testing::example_inputs(g, 2, 51);
  const std::vector<TensorMap> missing(2);
  const auto want = SequentialExecutor(&g).run(good);

  // Back-to-back submits overlap unless the host stalls this thread for a
  // whole run; retry until three slots were in flight together.
  for (int round = 0; round < 20 && exec.run_slots(0) < 3; ++round) {
    std::vector<std::exception_ptr> errors;
    const auto out =
        oracle::run_in_flight(exec, {good, missing, good}, {}, &errors);
    ASSERT_FALSE(errors[0]);
    ASSERT_TRUE(errors[1]);
    ASSERT_FALSE(errors[2]);
    oracle::expect_bit_identical(out[0], want);
    oracle::expect_bit_identical(out[2], want);
  }
  EXPECT_EQ(exec.run_slots(0), 3) << "the runs never overlapped";
  oracle::expect_bit_identical(exec.run(good), want);
}

TEST_P(RunsInFlight, DestructionDrainsAsyncRunsAndCallsEachCompletionOnce) {
  Graph g = models::build("squeezenet");
  const Hyperclustering hc = testing::hypercluster(g, 2);
  const auto inputs = testing::example_inputs(g, 2, 53);
  constexpr int kRuns = 6;
  std::vector<std::atomic<int>> calls(kRuns);
  std::vector<std::atomic<int>> served(kRuns);
  {
    ParallelExecutor exec(&g, hc, nullptr, GetParam());
    for (int i = 0; i < kRuns; ++i) {
      exec.submit(0, inputs, RunOptions{},
                  [&calls, &served, i](std::vector<TensorMap> out,
                                       std::exception_ptr error, Profile) {
                    calls[static_cast<std::size_t>(i)].fetch_add(1);
                    if (!error && out.size() == 2u) {
                      served[static_cast<std::size_t>(i)].fetch_add(1);
                    }
                  });
    }
  }  // destroyed with the runs still in flight
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(calls[static_cast<std::size_t>(i)].load(), 1) << "run " << i;
    EXPECT_EQ(served[static_cast<std::size_t>(i)].load(), 1) << "run " << i;
  }
}

TEST_P(RunsInFlight, AddProgramUnderConcurrentRunProgramCallers) {
  // Hot-loading wider programs (the pool grows from 2 to 4 threads) while
  // two callers keep running program 0: every output stays bit-identical.
  Graph a = models::build("squeezenet");
  Graph b = models::build("googlenet");
  const Hyperclustering hc_a = testing::hypercluster(a, 2);
  const Hyperclustering hc_b = testing::hypercluster(b, 2);
  Rng rng(57);
  const auto in_a = make_example_inputs(a, 2, rng);
  const auto in_b = make_example_inputs(b, 2, rng);
  const auto want_a = SequentialExecutor(&a).run(in_a);
  const auto want_b = SequentialExecutor(&b).run(in_b);

  std::vector<ExecutorProgram> programs;
  programs.push_back(ExecutorProgram{&a, hc_a, nullptr});
  ParallelExecutor pool(std::move(programs), GetParam());
  std::atomic<bool> stop{false};
  std::atomic<int> runs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      while (!stop.load()) {
        oracle::expect_bit_identical(pool.run_program(0, in_a), want_a);
        runs.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    const int id = pool.add_program(&b, hc_b, nullptr);
    oracle::expect_bit_identical(pool.run_program(id, in_b), want_b);
  }
  while (runs.load() < 4) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(pool.num_programs(), 4);
}

TEST_P(RunsInFlight, ZooBitIdenticalAcrossMemPlanAndDepth) {
  for (const std::string& name : models::model_names()) {
    oracle::check(oracle::zoo(name),
                  oracle::cells({.placements = {GetParam()},
                                 .arenas = {true, false},
                                 .batches = {2},
                                 .in_flight = {1, 2, 4}}));
  }
}

// ------------------------------------------------------------- short runs --

// A run of n < batch samples runs only those samples' tasks and is
// bit-identical to the sequential run of the same n samples (and to the
// first n outputs of a full run, oracle.h).
const oracle::Slice kShortRunSlice{
    .placements = {ExecutorKind::kStatic, ExecutorKind::kSteal},
    .arenas = {true, false},
    .batches = {4},
    .hypers = {HyperMode::kPlain, HyperMode::kSwitched},
    .samples = {1, 3},
    .in_flight = {1, 2}};

TEST(ShortRuns, SqueezenetMatchesTheOracle) {
  oracle::check(oracle::zoo("squeezenet"), oracle::cells(kShortRunSlice));
}

TEST(ShortRuns, RandomDagsMatchTheOracle) {
  for (std::uint64_t seed : {3u, 8u}) {
    oracle::check(oracle::random_source(seed), oracle::cells(kShortRunSlice));
  }
}

TEST(ShortRuns, ShortAndFullRunsInFlightTogether) {
  // Runs of 1, 4 and 3 samples of one batch-4 program overlap; each returns
  // its own samples' outputs, bit-identical to the sequential run.
  CompiledModel cm = oracle::compile(
      models::build("squeezenet"),
      {.batch = 4, .hyper = HyperMode::kSwitched});
  std::vector<std::vector<TensorMap>> batches = {
      testing::example_inputs(cm.graph, 4, 61),
      testing::example_inputs(cm.graph, 4, 62),
      testing::example_inputs(cm.graph, 4, 63)};
  batches[0].resize(1);
  batches[2].resize(3);
  for (ExecutorKind placement : {ExecutorKind::kStatic, ExecutorKind::kSteal}) {
    SCOPED_TRACE(to_string(placement));
    ParallelExecutor exec(&cm.graph, cm.hyperclusters, &cm.mem_plan,
                          placement);
    for (int round = 0; round < 3; ++round) {
      const auto got = oracle::run_in_flight(exec, batches);
      for (std::size_t i = 0; i < batches.size(); ++i) {
        SCOPED_TRACE(str_cat("run ", i));
        oracle::expect_bit_identical(
            SequentialExecutor(&cm.graph).run(batches[i]), got[i]);
      }
    }
  }
}

TEST(ShortRuns, RunOnlyTheirSamplesTasks) {
  // A short run's profile counts one sample's tasks per sample it carries,
  // and (pinned) only its own samples' messages.
  CompiledModel cm =
      oracle::compile(models::build("squeezenet"), {.batch = 4});
  std::size_t tasks = 0;
  for (const auto& list : cm.hyperclusters.workers) tasks += list.size();
  const auto inputs = testing::example_inputs(cm.graph, 4, 64);
  const auto sum = [](const Profile& p, int WorkerProfile::*field) {
    int total = 0;
    for (const WorkerProfile& w : p.workers) total += w.*field;
    return total;
  };
  for (ExecutorKind placement : {ExecutorKind::kStatic, ExecutorKind::kSteal}) {
    SCOPED_TRACE(to_string(placement));
    ParallelExecutor exec(&cm.graph, cm.hyperclusters, &cm.mem_plan,
                          placement);
    RunOptions traced;
    traced.trace = true;
    Profile full, one;
    (void)exec.run(inputs, traced, &full);
    ASSERT_EQ(exec.run({inputs[0]}, traced, &one).size(), 1u);
    EXPECT_EQ(sum(full, &WorkerProfile::tasks), static_cast<int>(tasks));
    EXPECT_EQ(4 * sum(one, &WorkerProfile::tasks), static_cast<int>(tasks));
    for (const TaskEvent& e : one.events) EXPECT_EQ(e.sample, 0);
    for (const MessageEvent& m : one.messages) EXPECT_EQ(m.sample, 0);
    EXPECT_EQ(4 * sum(one, &WorkerProfile::messages_sent),
              sum(full, &WorkerProfile::messages_sent));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, RunsInFlight,
    ::testing::Values(ExecutorKind::kStatic, ExecutorKind::kSteal),
    [](const ::testing::TestParamInfo<ExecutorKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace ramiel

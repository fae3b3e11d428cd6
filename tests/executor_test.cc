#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "models/zoo.h"
#include "passes/cluster_merging.h"
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

Clustering cluster(const Graph& g) {
  return merge_clusters(g, linear_clustering(g));
}

void expect_outputs_match(const std::vector<TensorMap>& a,
                          const std::vector<TensorMap>& b, float atol = 1e-4f,
                          float rtol = 1e-3f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (const auto& [key, value] : a[s]) {
      ASSERT_TRUE(b[s].count(key)) << key;
      EXPECT_TRUE(allclose(value, b[s].at(key), atol, rtol))
          << "sample " << s << " output " << key;
    }
  }
}

TEST(SequentialExecutor, RunsDiamond) {
  Graph g = testing::make_diamond_graph();
  Rng rng(1);
  auto inputs = make_example_inputs(g, 1, rng);
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
  Rng rng(2);
  auto inputs = make_example_inputs(g, 3, rng);
  SequentialExecutor exec(&g);
  auto batched = exec.run(inputs);
  for (int s = 0; s < 3; ++s) {
    auto single = exec.run({inputs[static_cast<std::size_t>(s)]});
    expect_outputs_match({batched[static_cast<std::size_t>(s)]}, single);
  }
}

TEST(SequentialExecutor, ProfileAccountsForAllTasks) {
  Graph g = testing::make_diamond_graph();
  Rng rng(3);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor exec(&g);
  Profile profile;
  RunOptions opts;
  opts.trace = true;
  exec.run(inputs, opts, &profile);
  ASSERT_EQ(profile.workers.size(), 1u);
  EXPECT_EQ(profile.workers[0].tasks, 4);
  EXPECT_EQ(profile.events.size(), 4u);
  EXPECT_GT(profile.wall_ms, 0.0);
}

TEST(ParallelExecutor, MatchesSequentialOnDiamond) {
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  Rng rng(4);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, hc);
  expect_outputs_match(seq.run(inputs), par.run(inputs));
}

TEST(ParallelExecutor, HandlesConstantNodes) {
  Graph g = testing::make_const_side_graph();
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  Rng rng(5);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, hc);
  expect_outputs_match(seq.run(inputs), par.run(inputs));
}

class ParallelEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelEquivalence, ParallelMatchesSequential) {
  Graph g = models::build(GetParam());
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  Rng rng(6);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, hc);
  expect_outputs_match(seq.run(inputs), par.run(inputs));
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelEquivalence,
                         ::testing::Values("squeezenet", "googlenet",
                                           "yolo_v5", "bert"));

TEST(ParallelExecutor, HyperclusterBatch2MatchesSequential) {
  Graph g = models::build("squeezenet");
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 2);
  Rng rng(7);
  auto inputs = make_example_inputs(g, 2, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, hc);
  expect_outputs_match(seq.run(inputs), par.run(inputs));
}

TEST(ParallelExecutor, SwitchedHyperclusterMatchesSequential) {
  Graph g = models::build("squeezenet");
  Clustering c = cluster(g);
  for (int batch : {2, 3, 4}) {
    Hyperclustering hc = build_switched_hyperclusters(g, c, batch);
    Rng rng(8);
    auto inputs = make_example_inputs(g, batch, rng);
    SequentialExecutor seq(&g);
    ParallelExecutor par(&g, hc);
    expect_outputs_match(seq.run(inputs), par.run(inputs));
  }
}

TEST(ParallelExecutor, IntraOpThreadsPreserveResults) {
  Graph g = models::build("googlenet");
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  Rng rng(9);
  auto inputs = make_example_inputs(g, 1, rng);
  ParallelExecutor par(&g, hc);
  RunOptions serial_opts;
  RunOptions threaded_opts;
  threaded_opts.intra_op_threads = 4;
  expect_outputs_match(par.run(inputs, serial_opts),
                       par.run(inputs, threaded_opts), 1e-4f, 1e-4f);
}

TEST(ParallelExecutor, RejectsWrongBatchSize) {
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 2);
  Rng rng(10);
  auto inputs = make_example_inputs(g, 1, rng);  // batch 1 vs executor batch 2
  ParallelExecutor par(&g, hc);
  // The mismatch is rejected up front with an explanatory message, before
  // any worker touches the inputs.
  try {
    par.run(inputs);
    FAIL() << "expected batch-size mismatch to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("compiled for batch 2"), std::string::npos) << what;
    EXPECT_NE(what.find("got 1 sample"), std::string::npos) << what;
  }
  // The rejected call must not wedge the persistent workers: a correctly
  // sized batch still runs afterwards.
  auto ok_inputs = make_example_inputs(g, 2, rng);
  EXPECT_EQ(par.run(ok_inputs).size(), 2u);
}

TEST(ParallelExecutor, ReusesWorkersAcrossManyRuns) {
  // Persistent-executor contract: >= 100 consecutive run() calls on one
  // instance, identical outputs every time (the serving loop depends on
  // this — no per-request thread spawn, no state bleeding between runs).
  Graph g = models::build("squeezenet");
  Clustering c = cluster(g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  Rng rng(40);
  auto inputs = make_example_inputs(g, 1, rng);
  const auto reference = par.run(inputs);
  for (int i = 0; i < 99; ++i) {
    auto repeat = par.run(inputs);
    ASSERT_EQ(repeat.size(), reference.size()) << "run " << i;
    for (const auto& [key, value] : reference[0]) {
      ASSERT_TRUE(repeat[0].count(key)) << "run " << i;
      // Bitwise equality: same graph, same inputs, same kernels — reuse
      // must not perturb results at all.
      ASSERT_TRUE(allclose(repeat[0].at(key), value, 0.0f, 0.0f))
          << "run " << i << " output " << key;
    }
  }
  EXPECT_EQ(par.runs_completed(), 100u);
}

TEST(ParallelExecutor, ReuseSurvivesIntraOpWidthChanges) {
  // The persistent per-worker pools rebuild when the requested intra-op
  // width changes; outputs stay equivalent through the transitions.
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  Rng rng(41);
  auto inputs = make_example_inputs(g, 1, rng);
  RunOptions serial, wide;
  wide.intra_op_threads = 3;
  const auto reference = par.run(inputs, serial);
  for (int i = 0; i < 6; ++i) {
    auto got = par.run(inputs, i % 2 == 0 ? wide : serial);
    for (const auto& [key, value] : reference[0]) {
      ASSERT_TRUE(allclose(got[0].at(key), value, 1e-5f, 1e-5f))
          << "run " << i << " output " << key;
    }
  }
}

TEST(ParallelExecutor, RecoversAfterFailedRun) {
  // A run that throws (missing input) poisons the inboxes; the next run on
  // the same persistent instance must start from a clean slate.
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  std::vector<TensorMap> empty_inputs(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(par.run(empty_inputs), Error) << "iteration " << i;
    Rng rng(42);
    auto inputs = make_example_inputs(g, 1, rng);
    SequentialExecutor seq(&g);
    expect_outputs_match(seq.run(inputs), par.run(inputs));
  }
}

TEST(ParallelExecutor, ProfileCountsMessagesAndTasks) {
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  Hyperclustering hc = build_hyperclusters(g, c, 1);
  ParallelExecutor par(&g, hc);
  Rng rng(11);
  auto inputs = make_example_inputs(g, 1, rng);
  Profile profile;
  RunOptions opts;
  opts.trace = true;
  par.run(inputs, opts, &profile);
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
  Clustering c = cluster(g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  Rng rng(12);
  auto inputs = make_example_inputs(g, 1, rng);
  Profile profile;
  RunOptions opts;
  opts.trace = true;
  par.run(inputs, opts, &profile);
  const std::string json = profile.to_chrome_trace(g);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("Relu"), std::string::npos);
}

TEST(ParallelExecutor, MissingInputThrows) {
  Graph g = testing::make_diamond_graph();
  Clustering c = cluster(g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  std::vector<TensorMap> empty_inputs(1);
  EXPECT_THROW(par.run(empty_inputs), Error);
}

TEST(MakeExampleInputs, CoversInputsAndRespectsIdRanges) {
  Graph g = models::build("bert");
  Rng rng(13);
  auto inputs = make_example_inputs(g, 2, rng);
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
  Rng rng(3);
  auto inputs = make_example_inputs(g, 1, rng);
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

  Rng rng(4);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  expect_outputs_match(seq.run(inputs), par.run(inputs));
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
  Rng rng(5);
  auto inputs = make_example_inputs(g, 1, rng);
  SequentialExecutor seq(&g);
  ParallelExecutor par(&g, build_hyperclusters(g, c, 1));
  Profile profile;
  auto got = par.run(inputs, {}, &profile);
  expect_outputs_match(seq.run(inputs), got);
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

void expect_bit_identical(const std::vector<TensorMap>& a,
                          const std::vector<TensorMap>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "sample " << s;
    for (const auto& [key, ta] : a[s]) {
      ASSERT_TRUE(b[s].count(key)) << key;
      const Tensor& tb = b[s].at(key);
      ASSERT_EQ(ta.shape().dims(), tb.shape().dims()) << key;
      EXPECT_EQ(0, std::memcmp(ta.data().data(), tb.data().data(),
                               ta.data().size() * sizeof(float)))
          << "sample " << s << " output " << key;
    }
  }
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
      build_hyperclusters(other, cluster(other), kBatch);

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
  if (shared) expect_bit_identical(pool.run_program(1, other_inputs), other_solo);

  // The failing program itself serves its next, good, batch.
  SequentialExecutor seq(&fragile);
  expect_outputs_match(seq.run(good), pool.run_program(0, good));
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
  const Hyperclustering hc = build_hyperclusters(g, cluster(g), 1);
  mem::MemPlan wrong;
  wrong.workers.resize(static_cast<std::size_t>(hc.workers.size()) + 1);
  std::vector<ExecutorProgram> programs;
  programs.push_back(ExecutorProgram{&g, hc, nullptr});
  programs.push_back(ExecutorProgram{&g, hc, &wrong});
  EXPECT_THROW(ParallelExecutor(std::move(programs)), Error);
}

// ---------------------------------------------------------- runs in flight --

/// One async run's outcome, filled by its completion.
struct Outcome {
  std::vector<TensorMap> outputs;
  std::exception_ptr error;
};

/// Submits every batch before waiting for any; returns each run's outcome.
std::vector<Outcome> submit_all(
    ParallelExecutor& exec, const std::vector<std::vector<TensorMap>>& batches) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Outcome> outcomes(batches.size());
  std::size_t completed = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    exec.submit(0, batches[i], RunOptions{},
                [&, i](std::vector<TensorMap> out, std::exception_ptr error,
                       Profile) {
                  std::lock_guard<std::mutex> lk(mu);
                  outcomes[i].outputs = std::move(out);
                  outcomes[i].error = error;
                  ++completed;
                  cv.notify_all();
                });
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return completed == batches.size(); });
  return outcomes;
}

class RunsInFlight : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(RunsInFlight, FailingRunFailsAloneBesideAGoodRun) {
  // A run that throws (missing input) while good runs of the same program
  // are in flight: only it fails, the good ones stay bit-identical to the
  // oracle, and the next run is clean.
  Graph g = models::build("squeezenet");
  const Hyperclustering hc = build_hyperclusters(g, cluster(g), 2);
  ParallelExecutor exec(&g, hc, nullptr, GetParam());
  Rng rng(51);
  const auto good = make_example_inputs(g, 2, rng);
  const std::vector<TensorMap> missing(2);
  const auto want = SequentialExecutor(&g).run(good);

  // Back-to-back submits overlap unless the host stalls this thread for a
  // whole run; retry until three slots were in flight together.
  for (int round = 0; round < 20 && exec.run_slots(0) < 3; ++round) {
    const auto outcomes = submit_all(exec, {good, missing, good});
    ASSERT_FALSE(outcomes[0].error);
    ASSERT_TRUE(outcomes[1].error);
    ASSERT_FALSE(outcomes[2].error);
    expect_bit_identical(outcomes[0].outputs, want);
    expect_bit_identical(outcomes[2].outputs, want);
  }
  EXPECT_EQ(exec.run_slots(0), 3) << "the runs never overlapped";
  expect_bit_identical(exec.run(good), want);
}

TEST_P(RunsInFlight, DestructionDrainsAsyncRunsAndCallsEachCompletionOnce) {
  Graph g = models::build("squeezenet");
  const Hyperclustering hc = build_hyperclusters(g, cluster(g), 2);
  Rng rng(53);
  const auto inputs = make_example_inputs(g, 2, rng);
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
  const Hyperclustering hc_a = build_hyperclusters(a, cluster(a), 2);
  const Hyperclustering hc_b = build_hyperclusters(b, cluster(b), 2);
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
        expect_bit_identical(pool.run_program(0, in_a), want_a);
        runs.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    const int id = pool.add_program(&b, hc_b, nullptr);
    expect_bit_identical(pool.run_program(id, in_b), want_b);
  }
  while (runs.load() < 4) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(pool.num_programs(), 4);
}

TEST_P(RunsInFlight, ZooBitIdenticalAcrossMemPlanAndDepth) {
  // The gate matrix: every zoo model x {arena, heap} x runs in flight
  // {1, 2, 4}, each run on its own inputs, against the sequential oracle.
  PipelineOptions opts;
  opts.batch = 2;
  opts.generate_code = false;
  for (const std::string& name : models::model_names()) {
    SCOPED_TRACE(name);
    const CompiledModel cm = compile_model(models::build(name), opts);
    Rng rng(59);
    std::vector<std::vector<TensorMap>> batches;
    std::vector<std::vector<TensorMap>> want;
    for (int i = 0; i < 4; ++i) {
      batches.push_back(make_example_inputs(cm.graph, 2, rng));
      want.push_back(SequentialExecutor(&cm.graph).run(batches.back()));
    }
    for (const bool planned : {true, false}) {
      ParallelExecutor exec(&cm.graph, cm.hyperclusters,
                            planned ? &cm.mem_plan : nullptr, GetParam());
      for (const std::size_t depth : {1u, 2u, 4u}) {
        const auto outcomes = submit_all(
            exec, std::vector<std::vector<TensorMap>>(
                      batches.begin(), batches.begin() + depth));
        for (std::size_t i = 0; i < depth; ++i) {
          ASSERT_FALSE(outcomes[i].error) << "depth " << depth;
          expect_bit_identical(outcomes[i].outputs, want[i]);
        }
      }
    }
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

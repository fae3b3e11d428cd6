// Memory planner + arena runtime tests (ctest -L mem).
//
// The load-bearing guarantees:
//   - planning: no two slots whose lifetimes coexist may overlap in
//     [offset, offset + bytes) — checked over every zoo model, several
//     batch sizes, and randomized elementwise/matmul DAGs;
//   - execution: an arena-backed ParallelExecutor produces bit-identical
//     outputs to a heap-backed one, including across repeated runs that
//     reuse the same arenas;
//   - escapes: responses and results own their storage (nothing points
//     into an arena after the run that filled it);
//   - reporting: the compile report's "memory" block is strict JSON.
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "mem/arena.h"
#include "mem/liveness.h"
#include "mem/plan.h"
#include "mem/planner.h"
#include "models/zoo.h"
#include "oracle.h"
#include "ramiel/pipeline.h"
#include "rt/executor.h"
#include "serve/fleet/fleet_server.h"
#include "strict_json.h"
#include "test_util.h"

namespace ramiel {
namespace {

using mem::kSlotAlign;
using mem::kStepForever;
using mem::MemArena;
using mem::MemPlan;
using mem::SlotSink;
using mem::StreamPlan;
using mem::ValueSlot;
using testutil::strictly_valid;

PipelineOptions planned_options(int batch) {
  PipelineOptions opts;
  opts.constant_folding = true;
  opts.batch = batch;
  opts.generate_code = false;
  return opts;
}

// ------------------------------------------------------------- arena ----

TEST(MemArena, AlignedGrowOnlyReallocatesNonEmptyBlocks) {
  MemArena a;
  EXPECT_EQ(a.capacity_bytes(), 0u);
  EXPECT_FALSE(a.ensure(0));  // nothing planned, nothing allocated
  EXPECT_EQ(a.data(), nullptr);

  EXPECT_FALSE(a.ensure(256));  // first allocation is not a "grow" event
  EXPECT_EQ(a.capacity_bytes(), 256u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                static_cast<std::uintptr_t>(kSlotAlign),
            0u);

  EXPECT_FALSE(a.ensure(64));  // never shrinks, no realloc
  EXPECT_EQ(a.capacity_bytes(), 256u);

  EXPECT_TRUE(a.ensure(1024));  // growing a live block is the counted event
  EXPECT_EQ(a.capacity_bytes(), 1024u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                static_cast<std::uintptr_t>(kSlotAlign),
            0u);
}

TEST(SlotSink, MatchesByExactNumelAndZeroFillsPlainSlots) {
  alignas(64) float buf[8];
  for (float& x : buf) x = 7.5f;
  SlotSink sink;
  sink.add(buf, 8, DType::kF32, /*in_place=*/false);

  // Wrong size or wrong dtype: decline, heap fallback.
  EXPECT_EQ(sink.take(4, DType::kF32), nullptr);
  EXPECT_EQ(sink.take(8, DType::kF16), nullptr);
  float* got = sink.take(8, DType::kF32);
  ASSERT_EQ(got, buf);
  for (float x : buf) EXPECT_EQ(x, 0.0f);  // matches heap zero-init
  // Each slot serves one allocation.
  EXPECT_EQ(sink.take(8, DType::kF32), nullptr);
  EXPECT_EQ(sink.taken(), 1);
}

TEST(SlotSink, InPlaceSlotKeepsDataAndOnlyMatchesFirstAllocation) {
  alignas(64) float buf[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  SlotSink sink;
  sink.add(buf, 4, DType::kF32, /*in_place=*/true);
  float* got = sink.take(4, DType::kF32);
  ASSERT_EQ(got, buf);
  EXPECT_EQ(buf[2], 3.0f);  // the dying input's bytes must survive the take

  // A temporary allocated before the output would corrupt the live input if
  // it got the slot; the sink must decline everything after alloc #0.
  sink.clear();
  sink.add(buf, 4, DType::kF32, /*in_place=*/true);
  EXPECT_EQ(sink.take(2, DType::kF32), nullptr);  // alloc #0 is some temp
  // Output arrives second: heap fallback.
  EXPECT_EQ(sink.take(4, DType::kF32), nullptr);
  EXPECT_EQ(sink.taken(), 0);
}

TEST(SlotSink, TensorAdoptsSlotWhileScopedSinkInstalled) {
  alignas(64) float buf[16];
  SlotSink sink;
  sink.add(buf, 16, DType::kF32, /*in_place=*/false);
  {
    mem::ScopedAllocSink guard(&sink);
    Tensor t{Shape{4, 4}};
    EXPECT_FALSE(t.owns_storage());
    EXPECT_EQ(t.data().data(), buf);
    Tensor c = t.clone();  // clone always detaches to owning storage
    EXPECT_TRUE(c.owns_storage());
    EXPECT_NE(c.data().data(), buf);
  }
  Tensor heap{Shape{4, 4}};  // sink uninstalled: back to plain allocation
  EXPECT_TRUE(heap.owns_storage());
}

// ---------------------------------------------------------- liveness ----

TEST(MemLiveness, AliasOutputsJoinTheirInputsClassAndEnableInPlace) {
  // x -> Relu a -> Reshape r -> Sigmoid s -> Relu t (output).
  // r allocates nothing (alias of a); s may overwrite a in place because
  // the alias class dies exactly at s.
  Graph g("alias_chain");
  ValueId in = g.add_value("x", Shape{2, 6});
  g.mark_input(in);
  NodeId a = g.add_node(OpKind::kRelu, "a", {in});
  NodeId r = g.add_node(OpKind::kReshape, "r", {g.node(a).outputs[0]},
                        /*num_outputs=*/1,
                        Attrs{}.set("shape", std::vector<std::int64_t>{3, 4}));
  NodeId s = g.add_node(OpKind::kSigmoid, "s", {g.node(r).outputs[0]});
  NodeId t = g.add_node(OpKind::kRelu, "t", {g.node(s).outputs[0]});
  g.mark_output(g.node(t).outputs[0]);

  CompiledModel cm = compile_model(std::move(g), planned_options(1));
  ASSERT_EQ(cm.mem_plan.workers.size(), 1u);
  const StreamPlan& sp = cm.mem_plan.workers[0].streams[0];

  const ValueId a_out = cm.graph.node(a).outputs[0];
  const ValueId r_out = cm.graph.node(r).outputs[0];
  const ValueId s_out = cm.graph.node(s).outputs[0];
  const ValueId t_out = cm.graph.node(t).outputs[0];

  EXPECT_TRUE(sp.slot_of.count(a_out));
  EXPECT_FALSE(sp.slot_of.count(r_out)) << "alias op must not get a slot";
  EXPECT_FALSE(sp.slot_of.count(t_out)) << "graph output must stay on heap";
  ASSERT_TRUE(sp.slot_of.count(s_out));
  const ValueSlot& s_slot = sp.slots[static_cast<std::size_t>(sp.slot_of.at(s_out))];
  EXPECT_TRUE(s_slot.in_place);
  EXPECT_EQ(s_slot.in_place_src, a_out);
  EXPECT_EQ(s_slot.offset,
            sp.slots[static_cast<std::size_t>(sp.slot_of.at(a_out))].offset);
  EXPECT_GT(cm.mem_plan.in_place_count, 0);
}

TEST(MemLiveness, InPlacePredicatesCoverTheVerifiedKernelSet) {
  EXPECT_TRUE(op_is_alias(OpKind::kIdentity));
  EXPECT_TRUE(op_is_alias(OpKind::kReshape));
  EXPECT_FALSE(op_is_alias(OpKind::kRelu));
  EXPECT_TRUE(mem::op_inplace_unary(OpKind::kGelu));
  EXPECT_FALSE(mem::op_inplace_unary(OpKind::kIdentity))
      << "alias kernels allocate nothing; in-place would be meaningless";
  EXPECT_FALSE(mem::op_inplace_unary(OpKind::kSoftmax))
      << "softmax reads the whole row per element; overwrite is unsafe";
  EXPECT_TRUE(mem::op_inplace_binary(OpKind::kMul));
  EXPECT_FALSE(mem::op_inplace_binary(OpKind::kMatMul));
}

// ------------------------------------------------- packing invariants ----

bool time_overlap(const ValueSlot& a, const ValueSlot& b) {
  return a.def_step <= b.last_step && b.def_step <= a.last_step;
}

bool range_overlap(const ValueSlot& a, const ValueSlot& b) {
  return a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
}

bool in_place_pair(const ValueSlot& a, const ValueSlot& b) {
  return (b.in_place && b.in_place_src == a.value && b.offset == a.offset) ||
         (a.in_place && a.in_place_src == b.value && a.offset == b.offset);
}

void expect_plan_sound(const Graph& g, const Hyperclustering& hc,
                       const MemPlan& plan, const std::string& context) {
  ASSERT_EQ(plan.workers.size(), hc.workers.size()) << context;
  for (std::size_t w = 0; w < plan.workers.size(); ++w) {
    const mem::WorkerPlan& wp = plan.workers[w];
    ASSERT_EQ(wp.streams.size(), static_cast<std::size_t>(hc.batch));
    for (std::size_t s = 0; s < wp.streams.size(); ++s) {
      const StreamPlan& sp = wp.streams[s];
      SCOPED_TRACE(context + " worker " + std::to_string(w) + " sample " +
                   std::to_string(s));
      for (const ValueSlot& slot : sp.slots) {
        EXPECT_EQ(slot.offset % kSlotAlign, 0);
        EXPECT_GT(slot.bytes, 0);
        EXPECT_LE(slot.offset + slot.bytes, sp.peak_bytes);
        EXPECT_LE(slot.def_step, slot.last_step);
        // Values consumed on another worker must stay live until the run
        // joins: the receiver reads the sender's slot through the mailbox.
        for (NodeId c : g.value(slot.value).consumers) {
          if (g.node(c).dead) continue;
          const int wc = hc.worker(c, static_cast<int>(s));
          if (wc >= 0 && wc != static_cast<int>(w)) {
            EXPECT_EQ(slot.last_step, kStepForever)
                << "sent value " << g.value(slot.value).name;
          }
        }
      }
      // The property: coexisting lifetimes never share bytes, except the
      // deliberate in-place hand-off (which shares the whole slot).
      for (std::size_t i = 0; i < sp.slots.size(); ++i) {
        for (std::size_t j = i + 1; j < sp.slots.size(); ++j) {
          const ValueSlot& a = sp.slots[i];
          const ValueSlot& b = sp.slots[j];
          if (!time_overlap(a, b) || !range_overlap(a, b)) continue;
          EXPECT_TRUE(in_place_pair(a, b))
              << "slots for '" << g.value(a.value).name << "' ["
              << a.offset << "," << a.offset + a.bytes << ") steps ["
              << a.def_step << "," << a.last_step << "] and '"
              << g.value(b.value).name << "' [" << b.offset << ","
              << b.offset + b.bytes << ") steps [" << b.def_step << ","
              << b.last_step << "] coexist and overlap";
        }
      }
      EXPECT_EQ(sp.naive_bytes >= sp.peak_bytes, true);
    }
    // Per-sample regions are disjoint inside the worker arena.
    std::int64_t expected_base = 0;
    for (std::size_t s = 0; s < wp.streams.size(); ++s) {
      EXPECT_EQ(wp.stream_base[s], expected_base);
      expected_base += wp.streams[s].peak_bytes;
    }
    EXPECT_EQ(wp.arena_bytes, expected_base);
  }
}

TEST(MemPlanProperty, NoCoexistingSlotOverlapOnAnyZooModel) {
  for (const std::string& name : models::model_names()) {
    for (int batch : {1, 3}) {
      CompiledModel cm =
          compile_model(models::build(name), planned_options(batch));
      expect_plan_sound(cm.graph, cm.hyperclusters, cm.mem_plan,
                        name + " batch " + std::to_string(batch));
    }
  }
}

TEST(MemPlanProperty, RandomDagsPlanSoundlyAndRunBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int batch = 1 + static_cast<int>(seed % 3);
    const CompiledModel cm =
        oracle::compile(oracle::random_dag(seed), oracle::Cell{.batch = batch});
    expect_plan_sound(cm.graph, cm.hyperclusters, cm.mem_plan,
                      "seed " + std::to_string(seed));
    oracle::check(oracle::random_source(seed),
                  oracle::cells({.arenas = {false, true}, .batches = {batch}}));
  }
}

// ------------------------------------------------ executor equivalence ----

TEST(MemExecutor, BitIdenticalToHeapOnEveryZooModelAndAcrossRuns) {
  for (const std::string& name : models::model_names()) {
    oracle::check(oracle::zoo(name),
                  oracle::cells({.arenas = {false, true},
                                 .rewrites = {oracle::Rewrites::kFold},
                                 .batches = {2}}));
    // The arenas are sized by the plan, and reused rather than grown.
    CompiledModel cm = compile_model(models::build(name), planned_options(2));
    ParallelExecutor arena(&cm.graph, cm.hyperclusters, &cm.mem_plan);
    const auto inputs = testing::example_inputs(cm.graph, 2, 42);
    Profile profile;
    arena.run(inputs);
    arena.run(inputs, {}, &profile);
    EXPECT_EQ(arena.arena_bytes_allocated(),
              static_cast<std::size_t>(cm.mem_plan.peak_bytes))
        << name;
    int avoided = 0;
    for (const WorkerProfile& w : profile.workers) avoided += w.allocs_avoided;
    EXPECT_GT(avoided, 0) << name;
  }
}

TEST(MemPlan, ReachesReuseTargetOnMostZooModels) {
  int hit = 0;
  for (const std::string& name : models::model_names()) {
    CompiledModel cm = compile_model(models::build(name), planned_options(2));
    ASSERT_GT(cm.mem_plan.naive_bytes, 0) << name;
    const double frac = static_cast<double>(cm.mem_plan.peak_bytes) /
                        static_cast<double>(cm.mem_plan.naive_bytes);
    if (frac <= 0.60) ++hit;
  }
  EXPECT_GE(hit, 6) << "planned peak should be <= 60% of naive on most models";
}

// ----------------------------------------------------------- serving ----

TEST(MemServe, ArenaBackedResponsesOwnStorageAndSurviveLaterBatches) {
  serve::fleet::FleetConfig config =
      serve::fleet::single_tenant_config("squeezenet");
  config.models[0].batch = 2;
  serve::fleet::FleetOptions opts;
  opts.mem_plan = true;
  serve::fleet::FleetServer server(config, opts);
  const Graph& graph = server.model_entry("squeezenet")->compiled.graph;
  ASSERT_FALSE(server.model_entry("squeezenet")->compiled.mem_plan.empty());
  auto sample = testing::example_inputs(graph, 1, 7)[0];
  SequentialExecutor seq(&graph);
  auto want = seq.run({sample})[0];

  // First wave fills the arenas; later waves rewrite them. Early responses
  // must stay valid — they own their bytes.
  std::vector<serve::Response> responses;
  for (int wave = 0; wave < 3; ++wave) {
    auto f1 = server.submit("squeezenet", sample);
    auto f2 = server.submit("squeezenet", sample);
    responses.push_back(f1.get());
    responses.push_back(f2.get());
  }
  server.shutdown();

  for (const serve::Response& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    for (const auto& [key, got] : r.outputs) {
      EXPECT_TRUE(got.owns_storage()) << key;
    }
    oracle::expect_bit_identical({want}, {r.outputs});
  }
}

// ------------------------------------------------------------ report ----

TEST(MemReport, MemoryBlockIsStrictJsonWithOneEntryPerCluster) {
  CompiledModel cm =
      compile_model(models::build("googlenet"), planned_options(2));
  const std::string json = compile_report_json(cm);
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"memory\":{"), std::string::npos);
  EXPECT_NE(json.find("\"planned\":true"), std::string::npos);
  EXPECT_NE(json.find("\"reuse_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"in_place\":"), std::string::npos);
  EXPECT_NE(json.find("\"pass\":\"mem_planning\""), std::string::npos);

  std::size_t entries = 0;
  for (std::size_t pos = json.find("\"worker\":"); pos != std::string::npos;
       pos = json.find("\"worker\":", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, cm.mem_plan.workers.size());
}

TEST(MemReport, DisabledPlanningReportsPlannedFalse) {
  PipelineOptions opts = planned_options(1);
  opts.mem_planning = false;
  CompiledModel cm = compile_model(models::build("squeezenet"), opts);
  EXPECT_TRUE(cm.mem_plan.empty());
  const std::string json = compile_report_json(cm);
  EXPECT_TRUE(strictly_valid(json));
  EXPECT_NE(json.find("\"planned\":false"), std::string::npos);
  EXPECT_EQ(json.find("\"pass\":\"mem_planning\""), std::string::npos);
}

}  // namespace
}  // namespace ramiel

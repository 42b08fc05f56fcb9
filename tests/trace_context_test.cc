// Distributed trace context + per-instance recorder tests (src/obs).
//
// Everything runs against private TraceRecorder instances so the global
// recorder (shared with other suites in this binary) stays untouched; the
// tests that need the global path (ambient gating off the global recorder,
// the training span tree) bracket it with StartTracing/StopTracing.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework_registry.h"
#include "models/registry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "ps/distributed_mamdr.h"
#include "test_util.h"

namespace mamdr {
namespace obs {
namespace {

std::vector<TraceEvent> Events(const TraceRecorder& r) {
  return r.SnapshotEvents();
}

const TraceEvent* FindByName(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(TraceContextTest, IdsAreNonzeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  const uint64_t c = NewSpanId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(c, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(TraceContextTest, DefaultContextIsInvalid) {
  EXPECT_FALSE(TraceContext{}.valid());
  EXPECT_TRUE((TraceContext{1, 2}).valid());
  // A thread with nothing installed has no ambient context.
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  const TraceContext outer{11, 22};
  {
    ScopedTraceContext install(outer);
    EXPECT_EQ(CurrentTraceContext().trace_id, 11u);
    EXPECT_EQ(CurrentTraceContext().span_id, 22u);
    {
      ScopedTraceContext inner(TraceContext{33, 44});
      EXPECT_EQ(CurrentTraceContext().trace_id, 33u);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, 11u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(ContextSpanTest, InactiveWhenRecorderIsOff) {
  TraceRecorder recorder;  // never started
  ContextSpan span("noop", "test", &recorder);
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.AddTag("k", "v");          // all no-ops
  span.SetError("ignored");
  EXPECT_FALSE(CurrentTraceContext().valid());  // ambient untouched
}

TEST(ContextSpanTest, RootSpanStartsFreshTrace) {
  TraceRecorder recorder;
  recorder.Start();
  {
    ContextSpan root("root", "test", &recorder);
    ASSERT_TRUE(root.active());
    EXPECT_TRUE(root.context().valid());
    // The root installed itself as the ambient context.
    EXPECT_EQ(CurrentTraceContext().span_id, root.context().span_id);
  }
  recorder.Stop();
  const auto events = Events(recorder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "root");
  EXPECT_NE(events[0].trace_id, 0u);
  EXPECT_EQ(events[0].parent_span_id, 0u);  // root has no parent
}

TEST(ContextSpanTest, LexicalNestingBuildsTheTree) {
  TraceRecorder recorder;
  recorder.Start();
  uint64_t root_span = 0, child_span = 0;
  {
    ContextSpan root("root", "test", &recorder);
    root_span = root.context().span_id;
    {
      ContextSpan child("child", "test", &recorder);
      child_span = child.context().span_id;
      ContextSpan grandchild("grandchild", "test", &recorder);
      EXPECT_EQ(grandchild.context().trace_id, root.context().trace_id);
    }
    // The child restored the ambient on destruction.
    EXPECT_EQ(CurrentTraceContext().span_id, root_span);
  }
  recorder.Stop();
  const auto events = Events(recorder);
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent* child = FindByName(events, "child");
  const TraceEvent* grandchild = FindByName(events, "grandchild");
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  EXPECT_EQ(child->parent_span_id, root_span);
  EXPECT_EQ(grandchild->parent_span_id, child_span);
  EXPECT_EQ(child->trace_id, grandchild->trace_id);
}

TEST(ContextSpanTest, ExplicitParentDoesNotTouchAmbient) {
  TraceRecorder recorder;
  recorder.Start();
  {
    ContextSpan fanout("fanout", "test", &recorder);
    const uint64_t fanout_span = fanout.context().span_id;
    // Overlapping siblings, destroyed out of LIFO order — exactly the
    // fan-out shape. None of them may disturb the ambient context.
    std::vector<std::unique_ptr<ContextSpan>> shards;
    for (int i = 0; i < 3; ++i) {
      shards.push_back(std::make_unique<ContextSpan>(
          "shard", "test", fanout.context(), &recorder));
    }
    EXPECT_EQ(CurrentTraceContext().span_id, fanout_span);
    shards.erase(shards.begin());  // destroy the first sibling first
    EXPECT_EQ(CurrentTraceContext().span_id, fanout_span);
    shards.clear();
    EXPECT_EQ(CurrentTraceContext().span_id, fanout_span);
  }
  recorder.Stop();
  const auto events = Events(recorder);
  ASSERT_EQ(events.size(), 4u);
  const TraceEvent* fanout = FindByName(events, "fanout");
  ASSERT_NE(fanout, nullptr);
  for (const TraceEvent& e : events) {
    if (e.name != "shard") continue;
    EXPECT_EQ(e.parent_span_id, fanout->span_id);
    EXPECT_EQ(e.trace_id, fanout->trace_id);
  }
}

TEST(ContextSpanTest, WireDecodedParentPropagatesAcrossRecorders) {
  // Client and server sides of one RPC, each with its own recorder (the
  // two-process model collapsed into one test).
  TraceRecorder client, server;
  client.Start();
  server.Start();
  uint64_t wire_trace = 0, wire_parent = 0;
  {
    ContextSpan rpc("ps.client.rpc:ping", "ps.client", &client);
    wire_trace = rpc.context().trace_id;
    wire_parent = rpc.context().span_id;
    // "Server side": the context arrives off the wire, not via ambient.
    ContextSpan handle("ps.shard.handle:ping", "ps.shard",
                       TraceContext{wire_trace, wire_parent}, &server);
    ScopedTraceContext ambient(handle.context());
    ContextSpan apply("ps.shard.apply", "ps.shard", &server);
    EXPECT_EQ(apply.context().trace_id, wire_trace);
  }
  client.Stop();
  server.Stop();
  const auto server_events = Events(server);
  const TraceEvent* handle = FindByName(server_events, "ps.shard.handle:ping");
  const TraceEvent* apply = FindByName(server_events, "ps.shard.apply");
  ASSERT_NE(handle, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(handle->trace_id, wire_trace);
  EXPECT_EQ(handle->parent_span_id, wire_parent);
  EXPECT_EQ(apply->parent_span_id, handle->span_id);
  EXPECT_EQ(Events(client).size(), 1u);
}

TEST(ContextSpanTest, TagsAndErrorsRenderIntoArgs) {
  TraceRecorder recorder;
  recorder.Start();
  {
    ContextSpan span("tagged", "test", &recorder);
    span.AddTag("shard", "3");
    span.SetError("boom");
  }
  recorder.Stop();
  const auto events = Events(recorder);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].tags.size(), 2u);
  EXPECT_EQ(events[0].tags[0].first, "shard");
  EXPECT_EQ(events[0].tags[0].second, "3");
  EXPECT_EQ(events[0].tags[1].first, "error");
  EXPECT_EQ(events[0].tags[1].second, "boom");

  const std::string json = recorder.Json();
  EXPECT_NE(json.find("\"trace_id\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"3\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"boom\""), std::string::npos);
}

TEST(ContextSpanTest, GlobalRecorderIsTheDefaultTarget) {
  StartTracing();
  { ContextSpan span("global-span", "test"); }
  StopTracing();
  const auto events = TraceRecorder::Global().SnapshotEvents();
  EXPECT_NE(FindByName(events, "global-span"), nullptr);
}

TEST(TraceRecorderTest, ProcessIdentityAndMetaTrailer) {
  TraceRecorder recorder;
  recorder.SetProcess(1003, "shard-3");
  recorder.Start();
  { ContextSpan span("x", "test", &recorder); }
  recorder.Stop();
  const std::string json = recorder.Json();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"shard-3\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1003"), std::string::npos);
  EXPECT_NE(json.find("\"mamdrMeta\""), std::string::npos);
  EXPECT_NE(json.find("\"base_us\":"), std::string::npos);
}

TEST(TraceRecorderTest, InstancesAreIndependentOfGlobal) {
  TraceRecorder recorder;
  recorder.Start();
  // Instance Start is not global Start.
  EXPECT_FALSE(TraceRecorder::Global().enabled());
  { ContextSpan span("instance-span", "test", &recorder); }
  recorder.Stop();
  EXPECT_EQ(recorder.event_count(), 1u);
  EXPECT_EQ(recorder.dropped_count(), 0u);
  EXPECT_EQ(FindByName(TraceRecorder::Global().SnapshotEvents(),
                       "instance-span"),
            nullptr);
}

TEST(TraceRecorderTest, StartClearsPreviousRecording) {
  TraceRecorder recorder;
  recorder.Start();
  { ContextSpan span("first", "test", &recorder); }
  recorder.Stop();
  ASSERT_EQ(recorder.event_count(), 1u);
  recorder.Start();
  EXPECT_EQ(recorder.event_count(), 0u);
  { ContextSpan span("second", "test", &recorder); }
  recorder.Stop();
  const auto events = Events(recorder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

// One traced MAMDR epoch renders as a tree: the epoch span parents the DN
// and DR phases (ambient parenting, no explicit plumbing), while an
// evaluation outside the epoch starts its own trace.
TEST(TrainingSpanTreeTest, MamdrEpochParentsDnAndDrPhases) {
  auto ds = mamdr::testing::TinyDataset(2, 60, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(3);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  tc.dr_sample_k = 1;
  tc.dr_max_batches = 1;
  tc.seed = 9;
  auto fw = core::CreateFramework("MAMDR", model.get(), &ds, tc).value();

  StartTracing();
  fw->TrainEpoch();
  fw->Evaluate(metrics::Split::kTest);
  StopTracing();

  const auto events = TraceRecorder::Global().SnapshotEvents();
  ASSERT_FALSE(events.empty());
  for (const TraceEvent& e : events) EXPECT_NE(e.trace_id, 0u) << e.name;
  const TraceEvent* epoch = FindByName(events, "MAMDR_epoch");
  const TraceEvent* dn = FindByName(events, "DN_epoch");
  const TraceEvent* dr = FindByName(events, "dr_phase");
  const TraceEvent* eval = FindByName(events, "evaluate");
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(dn, nullptr);
  ASSERT_NE(dr, nullptr);
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(epoch->parent_span_id, 0u);
  EXPECT_EQ(dn->parent_span_id, epoch->span_id);
  EXPECT_EQ(dr->parent_span_id, epoch->span_id);
  EXPECT_EQ(dn->trace_id, epoch->trace_id);
  EXPECT_EQ(dr->trace_id, epoch->trace_id);
  EXPECT_EQ(eval->parent_span_id, 0u);
  EXPECT_NE(eval->trace_id, epoch->trace_id);
}

TEST(TrainingSpanTreeTest, DistributedWorkersJoinTheEpochTree) {
  auto ds = mamdr::testing::TinyDataset(4, 60, 5);
  ps::DistributedConfig dc;
  dc.num_workers = 2;
  dc.run_dr = true;
  dc.train.epochs = 1;
  dc.train.batch_size = 64;
  dc.train.dr_sample_k = 1;
  dc.train.dr_max_batches = 1;
  dc.train.seed = 9;
  ps::DistributedMamdr dist(mamdr::testing::TinyModelConfig(ds), &ds, dc);

  StartTracing();
  ASSERT_TRUE(dist.TrainEpoch().ok());
  StopTracing();

  const auto events = TraceRecorder::Global().SnapshotEvents();
  const TraceEvent* epoch = FindByName(events, "distributed_epoch");
  const TraceEvent* dr = FindByName(events, "distributed_dr_phase");
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(dr, nullptr);
  int dn_workers = 0;
  int dr_workers = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "worker_dn_epoch") {
      ++dn_workers;
      EXPECT_EQ(e.parent_span_id, epoch->span_id);
      EXPECT_EQ(e.trace_id, epoch->trace_id);
    } else if (e.name == "worker_dr_phase") {
      ++dr_workers;
      EXPECT_EQ(e.parent_span_id, dr->span_id);
      EXPECT_EQ(e.trace_id, dr->trace_id);
    }
  }
  EXPECT_EQ(dn_workers, 2);
  EXPECT_EQ(dr_workers, 2);
}

}  // namespace
}  // namespace obs
}  // namespace mamdr

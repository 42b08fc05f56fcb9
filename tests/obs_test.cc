// Unit tests for the observability layer: metrics registry, trace spans,
// telemetry sink, and the minimal JSON reader backing the golden harness.
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/histogram.h"
#include "testing/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "ps/net/wire.h"

namespace mamdr {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Latency histograms (obs/histogram.h)

TEST(LatencyBucketsTest, CanonicalLayoutIsPowersOfTwoMicros) {
  const std::vector<double>& b = LatencyBucketBounds();
  ASSERT_EQ(b.size(), 26u);
  EXPECT_EQ(b.front(), 1.0);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_EQ(b[i], 2.0 * b[i - 1]);
  // Same vector instance on every call (cached, never rebuilt).
  EXPECT_EQ(&LatencyBucketBounds(), &b);
}

TEST(LatencyHistogramTest, RegistersRuntimeWithCanonicalLayout) {
  Registry reg;
  Histogram* h = LatencyHistogram(&reg, "lat");
  EXPECT_EQ(h->stability(), Stability::kRuntime);
  EXPECT_EQ(LatencyHistogram(&reg, "lat"), h);  // find-or-create
  h->Observe(3.0);
  const Histogram::Snapshot s = h->snapshot();
  EXPECT_EQ(s.bounds, LatencyBucketBounds());
  EXPECT_EQ(s.count, 1u);
}

TEST(SnapshotQuantileTest, NearestRankWithInterpolation) {
  Registry reg;
  Histogram* h = reg.histogram("q", {1.0, 2.0, 4.0, 8.0});
  // Empty snapshot: every quantile is 0.
  EXPECT_EQ(SnapshotQuantile(h->snapshot(), 0.5), 0.0);

  // 4 observations, one per finite bucket.
  for (double v : {0.5, 1.5, 3.0, 7.0}) h->Observe(v);
  const Histogram::Snapshot s = h->snapshot();
  // p25 rank 1 -> first bucket, interpolated from 0 to its upper edge.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 0.25), 1.0);
  // p50 rank 2 -> (1, 2] bucket.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 0.5), 2.0);
  // p100 rank 4 -> (4, 8] bucket.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 1.0), 8.0);
  // q clamps to [0, 1]; q=0 still selects rank 1.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, -1.0), SnapshotQuantile(s, 0.0));
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 2.0), SnapshotQuantile(s, 1.0));
}

TEST(SnapshotQuantileTest, OverflowBucketReportsLastFiniteEdge) {
  Registry reg;
  Histogram* h = reg.histogram("overflow", {1.0, 2.0});
  h->Observe(1000.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h->snapshot(), 0.99), 2.0);
}

TEST(SummarizeTest, DigestMatchesSnapshot) {
  Registry reg;
  Histogram* h = LatencyHistogram(&reg, "digest");
  for (int i = 0; i < 100; ++i) h->Observe(10.0);
  const LatencySummary s = Summarize(h->snapshot());
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 1000.0);
  // All mass in the (8, 16] bucket: every quantile lands inside it.
  EXPECT_GT(s.p50, 8.0);
  EXPECT_LE(s.p50, 16.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(ScopedLatencyTimerTest, RecordsScopeDurationInMicros) {
  Registry reg;
  Histogram* h = LatencyHistogram(&reg, "scope");
  {
    ScopedLatencyTimer timer(h);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  const Histogram::Snapshot s = h->snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.sum, 0.0);
  // Null histogram: the timer is a no-op (and must not crash).
  { ScopedLatencyTimer noop(nullptr); }
}

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram

TEST(CounterTest, AddsAndReads) {
  Registry reg;
  Counter* c = reg.counter("c");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(c->stability(), Stability::kStable);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Registry reg;
  Counter* c = reg.counter("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Registry reg;
  Gauge* g = reg.gauge("g", Stability::kRuntime);
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_EQ(g->value(), -2.25);
  EXPECT_EQ(g->stability(), Stability::kRuntime);
}

TEST(HistogramTest, BucketsByUpperEdgeWithOverflow) {
  Registry reg;
  Histogram* h = reg.histogram("h", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(1.0);    // bucket 0 (edges are inclusive)
  h->Observe(7.0);    // bucket 1
  h->Observe(100.0);  // bucket 2
  h->Observe(1e6);    // overflow
  const Histogram::Snapshot snap = h->snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 7.0 + 100.0 + 1e6);
}

TEST(HistogramTest, ExponentialBoundsLayout) {
  const auto b = Histogram::ExponentialBounds(1.0, 4.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_DOUBLE_EQ(b[2], 16.0);
  EXPECT_DOUBLE_EQ(b[3], 64.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.counter("same");
  Counter* b = reg.counter("same");
  EXPECT_EQ(a, b);
  Gauge* g1 = reg.gauge("gauge");
  Gauge* g2 = reg.gauge("gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.histogram("hist", {1.0});
  Histogram* h2 = reg.histogram("hist", {1.0});
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  Registry reg;
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  Histogram* h = reg.histogram("h", {1.0});
  c->Add(7);
  g->Set(3.0);
  h->Observe(0.5);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  // Same pointer still valid and usable after Reset.
  EXPECT_EQ(reg.counter("c"), c);
  c->Add();
  EXPECT_EQ(c->value(), 1u);
}

TEST(RegistryTest, ToJsonIsSortedAndParses) {
  Registry reg;
  // Register deliberately out of order: the export must sort by name.
  reg.counter("zeta")->Add(1);
  reg.counter("alpha")->Add(2);
  reg.gauge("mid")->Set(0.5);
  const std::string doc = reg.ToJson(/*include_runtime=*/true);
  EXPECT_LT(doc.find("\"alpha\""), doc.find("\"zeta\""));
  std::string error;
  auto parsed = json::Parse(doc, &error);
  ASSERT_NE(parsed, nullptr) << error;
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* alpha = counters->Find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->kind, json::Kind::kNumber);
  EXPECT_EQ(alpha->number_value, 2.0);
}

TEST(RegistryTest, RuntimeMetricsExcludedFromDeterministicExport) {
  Registry reg;
  reg.counter("stable")->Add(1);
  reg.counter("runtime", Stability::kRuntime)->Add(1);
  reg.gauge("g.runtime", Stability::kRuntime)->Set(2.0);
  reg.histogram("timing", {1.0})->Observe(0.1);  // kRuntime by default
  const std::string golden = reg.ToJson(/*include_runtime=*/false);
  EXPECT_NE(golden.find("\"stable\""), std::string::npos);
  EXPECT_EQ(golden.find("\"runtime\""), std::string::npos);
  EXPECT_EQ(golden.find("\"g.runtime\""), std::string::npos);
  EXPECT_EQ(golden.find("\"timing\""), std::string::npos);
  const std::string full = reg.ToJson(/*include_runtime=*/true);
  EXPECT_NE(full.find("\"runtime\""), std::string::npos);
  EXPECT_NE(full.find("\"g.runtime\""), std::string::npos);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
}

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
}

// ---------------------------------------------------------------------------
// JSON formatting helpers

TEST(JsonDoubleTest, FormatsAndHandlesNonFinite) {
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(0.5), "0.5");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "null");
  // %.17g round-trips doubles exactly.
  const double v = 0.1234567890123456789;
  EXPECT_EQ(std::stod(JsonDouble(v)), v);
}

TEST(AppendJsonStringTest, EscapesSpecials) {
  std::string out;
  AppendJsonString("a\"b\\c\nd", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\"");
  std::string err;
  auto parsed = json::Parse(out, &err);
  ASSERT_NE(parsed, nullptr) << err;
  EXPECT_EQ(parsed->string_value, "a\"b\\c\nd");
}

TEST(AppendJsonStringTest, EscapesTabsCarriageReturnsAndControlChars) {
  std::string out;
  AppendJsonString("\t\r\x01", &out);
  EXPECT_EQ(out, "\"\\t\\r\\u0001\"");
}

// ---------------------------------------------------------------------------
// Monotonic clock (the single blessed steady_clock access point)

TEST(ClockTest, MonotonicClocksAdvanceAndAgree) {
  const int64_t us0 = MonotonicMicros();
  const double s0 = MonotonicSeconds();
  const int64_t us1 = MonotonicMicros();
  EXPECT_GT(us0, 0);
  EXPECT_GT(s0, 0.0);
  EXPECT_GE(us1, us0);
  // Both read the same epoch, so the seconds reading lands between the two
  // microsecond readings (with slack for the conversion rounding).
  EXPECT_GE(s0, static_cast<double>(us0) / 1e6 - 1e-3);
  EXPECT_LE(s0, static_cast<double>(us1) / 1e6 + 1e-3);
}

// ---------------------------------------------------------------------------
// Trace spans (obs::ContextSpan on the global recorder)

TEST(TraceTest, DisabledTracingRecordsNothing) {
  StopTracing();
  {
    ContextSpan literal("ignored", "test");
    ContextSpan dynamic(std::string("also_") + "ignored", "test");
    EXPECT_FALSE(literal.active());
    EXPECT_FALSE(dynamic.active());
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  EXPECT_FALSE(TraceRecorder::Global().enabled());
  StartTracing();
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
  StopTracing();
}

TEST(TraceTest, RecordsCompleteEventsInChromeFormat) {
  StartTracing();
  {
    ContextSpan outer("outer", "mamdr");
    ContextSpan inner(std::string("inner_") + "dyn", "test");
  }
  StopTracing();
  EXPECT_EQ(TraceRecorder::Global().event_count(), 2u);
  EXPECT_EQ(TraceRecorder::Global().dropped_count(), 0u);

  const std::string doc = TraceRecorder::Global().Json();
  std::string error;
  auto parsed = json::Parse(doc, &error);
  ASSERT_NE(parsed, nullptr) << error;
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev->is_object());
    // Structural chrome-trace contract: every event is a "ph":"X" complete
    // event with microsecond ts/dur and pid/tid.
    const json::Value* ph = ev->Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const json::Value* v = ev->Find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, json::Kind::kNumber) << key;
      EXPECT_GE(v->number_value, 0.0) << key;
    }
    const json::Value* name = ev->Find("name");
    ASSERT_NE(name, nullptr);
    if (name->string_value == "outer") saw_outer = true;
    if (name->string_value == "inner_dyn") saw_inner = true;
    const json::Value* cat = ev->Find("cat");
    ASSERT_NE(cat, nullptr);
    EXPECT_EQ(cat->kind, json::Kind::kString);
    const json::Value* args = ev->Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("trace_id"), nullptr);
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(TraceTest, StartTracingClearsPreviousRecording) {
  StartTracing();
  { ContextSpan span("first", "test"); }
  EXPECT_EQ(TraceRecorder::Global().event_count(), 1u);
  StartTracing();
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
  StopTracing();
}

TEST(TraceTest, SpanOpenAcrossStopIsDropped) {
  StartTracing();
  {
    ContextSpan span("straddles_stop", "test");
    StopTracing();
  }  // destructor runs after StopTracing: must not record
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
  // The span still restores the ambient context it installed.
  EXPECT_FALSE(CurrentTraceContext().valid());
}

// Heap allocations made by the current thread while a CountAllocations is
// live (the replacement operator new below feeds it).
thread_local int64_t* t_allocation_counter = nullptr;

class CountAllocations {
 public:
  CountAllocations() { t_allocation_counter = &count_; }
  ~CountAllocations() { t_allocation_counter = nullptr; }
  int64_t count() const { return count_; }

 private:
  int64_t count_ = 0;
};

TEST(TraceTest, UntracedLiteralSpanDoesNotAllocate) {
  StopTracing();  // also creates the global recorder outside the scope
  int64_t literal_allocs = -1;
  int64_t owned_allocs = -1;
  {
    CountAllocations allocations;
    { ContextSpan span("untraced_literal_span_name", "test"); }
    literal_allocs = allocations.count();
    // Control: a long owned name allocates even untraced, which proves the
    // counter is live.
    { ContextSpan span(std::string(64, 'x'), "test"); }
    owned_allocs = allocations.count() - literal_allocs;
  }
  EXPECT_EQ(literal_allocs, 0);
  EXPECT_GT(owned_allocs, 0);
}

TEST(TraceTest, UntracedPsSpanNameDoesNotAllocate) {
  using ps::net::PsOp;
  using ps::net::PsSpan;
  using ps::net::PsSpanName;
  StopTracing();
  // Longer than the small-string buffer, so building it per RPC would
  // allocate; the first call builds the table outside the counted scope.
  EXPECT_STREQ(PsSpanName(PsSpan::kShardHandle, PsOp::kPushRows),
               "ps.shard.handle:push_rows");
  EXPECT_STREQ(PsSpanName(PsSpan::kClientFanout, static_cast<PsOp>(0x7f)),
               "ps.client.fanout:unknown");
  int64_t allocs = -1;
  {
    CountAllocations allocations;
    {
      ContextSpan handle(PsSpanName(PsSpan::kShardHandle, PsOp::kPushRows),
                         "ps.shard");
      ContextSpan fanout(PsSpanName(PsSpan::kClientFanout, PsOp::kPullRows),
                         "ps.client");
    }
    allocs = allocations.count();
  }
  EXPECT_EQ(allocs, 0);
}

// ---------------------------------------------------------------------------
// Telemetry sink

TEST(TelemetrySinkTest, RecordsRoundTrip) {
  TelemetrySink sink;
  sink.RecordDomainEpoch({"dn", 0, 1, 3, 0.5, 2.0});
  sink.RecordEval({"dn", "val", 1, 0.75});
  sink.RecordConflict({"dn", 0, -0.25, -0.1, 1.0, 1});
  sink.RecordDrHelpers({0, 2, {1, 0}});
  ASSERT_EQ(sink.domain_epochs().size(), 1u);
  EXPECT_EQ(sink.domain_epochs()[0].domain, 1);
  ASSERT_EQ(sink.evals().size(), 1u);
  EXPECT_EQ(sink.evals()[0].split, "val");
  ASSERT_EQ(sink.conflicts().size(), 1u);
  EXPECT_EQ(sink.conflicts()[0].mean_inner_product, -0.25);
  ASSERT_EQ(sink.dr_helpers().size(), 1u);
  EXPECT_EQ(sink.dr_helpers()[0].helpers, (std::vector<int>{1, 0}));
  sink.Clear();
  EXPECT_TRUE(sink.domain_epochs().empty());
  EXPECT_TRUE(sink.evals().empty());
  EXPECT_TRUE(sink.conflicts().empty());
  EXPECT_TRUE(sink.dr_helpers().empty());
}

TEST(TelemetrySinkTest, ScopedSinkInstallsAndRestores) {
  TelemetrySink* before = Sink();
  TelemetrySink local;
  {
    ScopedSink scoped(&local);
    EXPECT_EQ(Sink(), &local);
    TelemetrySink nested;
    {
      ScopedSink inner(&nested);
      EXPECT_EQ(Sink(), &nested);
    }
    EXPECT_EQ(Sink(), &local);
  }
  EXPECT_EQ(Sink(), before);
}

TEST(TelemetrySinkTest, MetricsJsonEnvelope) {
  Registry reg;
  reg.counter("events")->Add(3);
  TelemetrySink sink;
  sink.RecordEval({"dn", "test", 0, 0.5});
  const std::string doc = MetricsJson(reg, &sink, /*include_runtime=*/false);
  std::string error;
  auto parsed = json::Parse(doc, &error);
  ASSERT_NE(parsed, nullptr) << error;
  const json::Value* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "mamdr.metrics.v1");
  ASSERT_NE(parsed->Find("counters"), nullptr);
  const json::Value* telemetry = parsed->Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const json::Value* evals = telemetry->Find("evals");
  ASSERT_NE(evals, nullptr);
  ASSERT_EQ(evals->array.size(), 1u);

  // Null sink: telemetry sections present but empty.
  const std::string empty_doc = MetricsJson(reg, nullptr, false);
  auto empty = json::Parse(empty_doc, &error);
  ASSERT_NE(empty, nullptr) << error;
  EXPECT_TRUE(empty->Find("telemetry")->Find("evals")->array.empty());
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonParseTest, ParsesAllValueKinds) {
  std::string error;
  auto v = json::Parse(
      R"({"n": null, "b": true, "f": false, "x": -1.5e2, "s": "hi\t", )"
      R"("a": [1, "two", {}], "o": {"nested": []}})",
      &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(v->Find("n")->kind, json::Kind::kNull);
  EXPECT_TRUE(v->Find("b")->bool_value);
  EXPECT_FALSE(v->Find("f")->bool_value);
  EXPECT_EQ(v->Find("x")->number_value, -150.0);
  EXPECT_EQ(v->Find("s")->string_value, "hi\t");
  ASSERT_TRUE(v->Find("a")->is_array());
  EXPECT_EQ(v->Find("a")->array.size(), 3u);
  ASSERT_TRUE(v->Find("o")->is_object());
  EXPECT_TRUE(v->Find("o")->Find("nested")->is_array());
  // Find on a non-object / missing key returns nullptr.
  EXPECT_EQ(v->Find("a")->Find("k"), nullptr);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",              // empty
      "{",             // unterminated object
      "[1, 2",         // unterminated array
      "\"abc",         // unterminated string
      "{\"a\" 1}",     // missing colon
      "tru",           // bad boolean literal
      "nul",           // bad null literal
      "{\"a\":1 2}",   // member not followed by ',' or '}'
      "@",             // no value starts with '@'
      "1.2.3",         // consumed as a number token, rejected by strtod
      "\"a\\z\"",      // unknown string escape
      "{} trailing"    // trailing garbage
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_EQ(json::Parse(text, &error), nullptr) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParseTest, DecodesStringEscapes) {
  std::string error;
  auto v = json::Parse(R"("a\/b\rc\bd\fe")", &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(v->string_value, "a/b\rc\bd\fe");
  // \uXXXX is preserved verbatim (the reader only needs to round-trip the
  // ASCII documents this library itself emits).
  auto u = json::Parse("\"\\u0041\"", &error);
  ASSERT_NE(u, nullptr) << error;
  EXPECT_EQ(u->string_value, "\\u0041");
}

TEST(JsonStructureSignatureTest, CollapsesArraysAndSortsPaths) {
  std::string error;
  auto v = json::Parse(
      R"({"b": [{"x": 1}, {"x": 2.5}], "a": "s"})", &error);
  ASSERT_NE(v, nullptr) << error;
  const std::string sig = json::StructureSignature(*v);
  // Array elements collapse to one "[]" entry regardless of length, and
  // lines come out sorted — so the signature pins shape, not contents.
  EXPECT_EQ(sig, json::StructureSignature(*json::Parse(
                     R"({"a": "t", "b": [{"x": 9}]})", &error)));
  EXPECT_NE(sig.find("$.a:string"), std::string::npos);
  EXPECT_NE(sig.find("$.b[].x:number"), std::string::npos);
}

TEST(JsonStructureSignatureTest, DistinguishesTypeChanges) {
  std::string error;
  auto a = json::Parse(R"({"k": 1})", &error);
  auto b = json::Parse(R"({"k": "1"})", &error);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(json::StructureSignature(*a), json::StructureSignature(*b));
}

TEST(JsonStructureSignatureTest, NamesNullAndBoolKinds) {
  std::string error;
  auto v = json::Parse(R"({"t": true, "n": null})", &error);
  ASSERT_NE(v, nullptr) << error;
  const std::string sig = json::StructureSignature(*v);
  EXPECT_NE(sig.find("$.t:bool"), std::string::npos);
  EXPECT_NE(sig.find("$.n:null"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace mamdr

// Replacement global allocation functions for this test binary: plain
// malloc/free, counting calls on threads that armed CountAllocations. The
// aligned forms keep the library defaults (they pair among themselves).
void* operator new(std::size_t size) {
  if (mamdr::obs::t_allocation_counter != nullptr) {
    ++*mamdr::obs::t_allocation_counter;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
// The deletes stay out of line: inlined, GCC's -Wmismatched-new-delete
// pairs their free() with the caller's `new` expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

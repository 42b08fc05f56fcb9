// Golden-run determinism harness for the metrics export (ISSUE 4).
//
// Three contracts:
//   1. Byte-identity: a fixed-seed 2-domain MAMDR run serializes to exactly
//      the same deterministic metrics JSON when repeated in-process, and
//      when evaluation fans out over 1 vs 4 threads (SetKernelThreads sizes
//      the per-call ThreadPool; Stability::kRuntime metrics are excluded
//      from this export precisely so this holds).
//   2. Schema: the document's structural signature (sorted "path:type"
//      lines) matches the checked-in tests/golden/metrics_schema.txt.
//      Regenerate after an intentional schema change with
//        MAMDR_REGEN_GOLDEN=1 ctest -R GoldenSchema
//   3. File round-trip: ConfigureOutputs + WriteConfiguredOutputs (the
//      --metrics-out / --trace-out path) produce parseable documents with
//      the expected envelopes.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "core/framework_registry.h"
#include "models/registry.h"
#include "testing/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "test_util.h"

namespace mamdr {
namespace obs {
namespace {

core::TrainConfig GoldenTrainConfig() {
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 64;
  tc.inner_lr = 2e-3f;
  tc.dr_sample_k = 1;
  tc.dr_max_batches = 2;
  tc.seed = 31;
  return tc;
}

/// One fixed-seed MAMDR run on a 2-domain dataset, recording telemetry
/// (conflict probe on) into a fresh sink against a reset global registry;
/// returns the deterministic metrics document.
std::string GoldenRun() {
  Registry::Global().Reset();
  TelemetryOptions opts;
  opts.probe_conflict = true;
  TelemetrySink sink(opts);
  ScopedSink scoped(&sink);

  auto ds = mamdr::testing::TinyDataset(2, 150, 37);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(4);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  auto fw =
      core::CreateFramework("MAMDR", model.get(), &ds, GoldenTrainConfig())
          .value();
  for (int e = 0; e < 2; ++e) {
    fw->TrainEpoch();
    fw->Evaluate(metrics::Split::kVal);
  }
  return MetricsJson(Registry::Global(), &sink, /*include_runtime=*/false);
}

TEST(GoldenRunTest, ByteIdenticalAcrossReruns) {
  const std::string first = GoldenRun();
  const std::string second = GoldenRun();
  EXPECT_EQ(first, second);
  // Sanity: the document is non-trivial, parses, and carries telemetry.
  std::string error;
  auto parsed = json::Parse(first, &error);
  ASSERT_NE(parsed, nullptr) << error;
  const json::Value* telemetry = parsed->Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_FALSE(telemetry->Find("domain_epochs")->array.empty());
  EXPECT_FALSE(telemetry->Find("evals")->array.empty());
  EXPECT_FALSE(telemetry->Find("conflicts")->array.empty());
  EXPECT_FALSE(telemetry->Find("dr_helpers")->array.empty());
}

TEST(GoldenRunTest, ByteIdenticalAcrossKernelThreadCounts) {
  SetKernelThreads(1);
  const std::string serial = GoldenRun();
  SetKernelThreads(4);
  const std::string parallel = GoldenRun();
  SetKernelThreads(0);  // back to the default (hardware concurrency)
  EXPECT_EQ(serial, parallel);
}

TEST(GoldenRunTest, RuntimeMetricsStayOutOfTheDeterministicExport) {
  Registry::Global().Reset();
  Registry::Global()
      .counter("test.runtime_only", Stability::kRuntime)
      ->Add(123);
  const std::string doc = GoldenRun();
  EXPECT_EQ(doc.find("test.runtime_only"), std::string::npos);
}

TEST(GoldenSchemaTest, StructureMatchesCheckedInGolden) {
  const std::string doc = GoldenRun();
  std::string error;
  auto parsed = json::Parse(doc, &error);
  ASSERT_NE(parsed, nullptr) << error;
  const std::string signature = json::StructureSignature(*parsed);

  const std::filesystem::path golden_path =
      std::filesystem::path(MAMDR_SOURCE_DIR) / "tests" / "golden" /
      "metrics_schema.txt";
  if (std::getenv("MAMDR_REGEN_GOLDEN") != nullptr) {
    std::filesystem::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << signature;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << "missing " << golden_path
      << " — regenerate with MAMDR_REGEN_GOLDEN=1 ctest -R GoldenSchema";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(signature, buf.str())
      << "metrics schema drifted; if intentional, regenerate the golden "
         "file with MAMDR_REGEN_GOLDEN=1";
}

TEST(ConfiguredOutputsTest, WritesParseableMetricsAndTraceFiles) {
  mamdr::testing::ScopedTempDir tmp("mamdr_obs_golden");
  const std::string metrics_path = tmp.file("metrics.json");
  const std::string trace_path = tmp.file("trace.json");

  Registry::Global().Reset();
  ConfigureOutputs(metrics_path, trace_path, /*probe_conflict=*/false);
  ASSERT_NE(Sink(), nullptr);
  EXPECT_TRUE(TraceRecorder::Global().enabled());

  // A short real run so both documents have content.
  auto ds = mamdr::testing::TinyDataset(2, 100, 11);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(4);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  auto fw = core::CreateFramework("DN", model.get(), &ds, GoldenTrainConfig())
                .value();
  fw->TrainEpoch();

  std::string error;
  ASSERT_TRUE(WriteConfiguredOutputs(&error)) << error;
  // Clearing the configuration retires the installed sink; stop the trace
  // recording too so later tests see a clean slate.
  ConfigureOutputs("", "", false);
  EXPECT_EQ(Sink(), nullptr);
  StopTracing();

  std::ifstream min(metrics_path);
  ASSERT_TRUE(min.good());
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  auto metrics_doc = json::Parse(mbuf.str(), &error);
  ASSERT_NE(metrics_doc, nullptr) << error;
  EXPECT_EQ(metrics_doc->Find("schema")->string_value, "mamdr.metrics.v1");
  EXPECT_FALSE(
      metrics_doc->Find("telemetry")->Find("domain_epochs")->array.empty());

  std::ifstream tin(trace_path);
  ASSERT_TRUE(tin.good());
  std::stringstream tbuf;
  tbuf << tin.rdbuf();
  auto trace_doc = json::Parse(tbuf.str(), &error);
  ASSERT_NE(trace_doc, nullptr) << error;
  const json::Value* events = trace_doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());
  bool saw_dn_epoch = false;
  for (const auto& ev : events->array) {
    EXPECT_EQ(ev->Find("ph")->string_value, "X");
    if (ev->Find("name")->string_value == "DN_epoch") saw_dn_epoch = true;
  }
  EXPECT_TRUE(saw_dn_epoch);
}

TEST(WriteFileTest, ReportsUnwritablePath) {
  std::string error;
  EXPECT_FALSE(WriteFile("/nonexistent-dir/x/y.json", "{}", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace obs
}  // namespace mamdr

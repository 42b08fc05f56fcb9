#include "obs/telemetry.h"

#include <atomic>
#include <cstdio>

#include "obs/trace.h"

namespace mamdr {
namespace obs {

void TelemetrySink::RecordDomainEpoch(DomainEpochRecord r) {
  MutexLock lock(&mu_);
  domain_epochs_.push_back(std::move(r));
}

void TelemetrySink::RecordEval(EvalRecord r) {
  MutexLock lock(&mu_);
  evals_.push_back(std::move(r));
}

void TelemetrySink::RecordConflict(ConflictRecord r) {
  MutexLock lock(&mu_);
  conflicts_.push_back(std::move(r));
}

void TelemetrySink::RecordDrHelpers(DrHelperRecord r) {
  MutexLock lock(&mu_);
  dr_helpers_.push_back(std::move(r));
}

std::vector<DomainEpochRecord> TelemetrySink::domain_epochs() const {
  MutexLock lock(&mu_);
  return domain_epochs_;
}

std::vector<EvalRecord> TelemetrySink::evals() const {
  MutexLock lock(&mu_);
  return evals_;
}

std::vector<ConflictRecord> TelemetrySink::conflicts() const {
  MutexLock lock(&mu_);
  return conflicts_;
}

std::vector<DrHelperRecord> TelemetrySink::dr_helpers() const {
  MutexLock lock(&mu_);
  return dr_helpers_;
}

void TelemetrySink::Clear() {
  MutexLock lock(&mu_);
  domain_epochs_.clear();
  evals_.clear();
  conflicts_.clear();
  dr_helpers_.clear();
}

std::string TelemetrySink::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"domain_epochs\":[";
  char buf[64];
  bool first = true;
  for (const DomainEpochRecord& r : domain_epochs_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"framework\":";
    AppendJsonString(r.framework, &out);
    std::snprintf(buf, sizeof(buf), ",\"epoch\":%d,\"domain\":%d,\"batches\":%d",
                  r.epoch, r.domain, r.batches);
    out += buf;
    out += ",\"mean_loss\":";
    out += JsonDouble(r.mean_loss);
    out += ",\"grad_norm\":";
    out += JsonDouble(r.grad_norm);
    out += "}";
  }
  out += "],\"evals\":[";
  first = true;
  for (const EvalRecord& r : evals_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"framework\":";
    AppendJsonString(r.framework, &out);
    out += ",\"split\":";
    AppendJsonString(r.split, &out);
    std::snprintf(buf, sizeof(buf), ",\"domain\":%d,\"auc\":", r.domain);
    out += buf;
    out += JsonDouble(r.auc);
    out += "}";
  }
  out += "],\"conflicts\":[";
  first = true;
  for (const ConflictRecord& r : conflicts_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"framework\":";
    AppendJsonString(r.framework, &out);
    std::snprintf(buf, sizeof(buf), ",\"epoch\":%d", r.epoch);
    out += buf;
    out += ",\"mean_inner_product\":";
    out += JsonDouble(r.mean_inner_product);
    out += ",\"mean_cosine\":";
    out += JsonDouble(r.mean_cosine);
    out += ",\"conflict_rate\":";
    out += JsonDouble(r.conflict_rate);
    std::snprintf(buf, sizeof(buf), ",\"num_pairs\":%d}", r.num_pairs);
    out += buf;
  }
  out += "],\"dr_helpers\":[";
  first = true;
  for (const DrHelperRecord& r : dr_helpers_) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"epoch\":%d,\"target\":%d,\"helpers\":[",
                  r.epoch, r.target);
    out += buf;
    for (size_t i = 0; i < r.helpers.size(); ++i) {
      if (i) out.push_back(',');
      std::snprintf(buf, sizeof(buf), "%d", r.helpers[i]);
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

namespace {
std::atomic<TelemetrySink*> g_sink{nullptr};

struct OutputConfig {
  std::string metrics_path;
  std::string trace_path;
};
OutputConfig& output_config() {
  static OutputConfig* c = new OutputConfig();
  return *c;
}

// The sink ConfigureOutputs installs. Held in a process-lifetime static
// (never destroyed, so no static-destruction-order hazard) that a later
// ConfigureOutputs call replaces — and frees — so repeated configuration
// does not accumulate sinks and LeakSanitizer sees the live one as
// reachable.
TelemetrySink*& owned_sink() {
  static TelemetrySink* s = nullptr;
  return s;
}
}  // namespace

void SetSink(TelemetrySink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TelemetrySink* Sink() { return g_sink.load(std::memory_order_acquire); }

std::string MetricsJson(const Registry& registry, const TelemetrySink* sink,
                        bool include_runtime) {
  std::string registry_json = registry.ToJson(include_runtime);
  // registry_json is "{...}": splice its body into the envelope.
  std::string out = "{\"schema\":\"mamdr.metrics.v1\",";
  out.append(registry_json, 1, registry_json.size() - 2);
  out += ",\"telemetry\":";
  if (sink != nullptr) {
    out += sink->ToJson();
  } else {
    out +=
        "{\"domain_epochs\":[],\"evals\":[],\"conflicts\":[],"
        "\"dr_helpers\":[]}";
  }
  out += "}";
  return out;
}

bool WriteFile(const std::string& path, const std::string& contents,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open for write: " + path;
    return false;
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = (written == contents.size());
  ok = (std::fclose(f) == 0) && ok;
  if (!ok && error != nullptr) *error = "short write: " + path;
  return ok;
}

void ConfigureOutputs(const std::string& metrics_path,
                      const std::string& trace_path, bool probe_conflict) {
  OutputConfig& cfg = output_config();
  cfg.metrics_path = metrics_path;
  cfg.trace_path = trace_path;
  TelemetrySink*& owned = owned_sink();
  if (!metrics_path.empty() || probe_conflict) {
    TelemetryOptions opts;
    opts.probe_conflict = probe_conflict;
    TelemetrySink* fresh = new TelemetrySink(opts);
    SetSink(fresh);
    delete owned;
    owned = fresh;
  } else if (owned != nullptr) {
    // Clearing the configuration retires a previously installed sink.
    if (Sink() == owned) SetSink(nullptr);
    delete owned;
    owned = nullptr;
  }
  if (!trace_path.empty()) StartTracing();
}

bool WriteConfiguredOutputs(std::string* error) {
  OutputConfig& cfg = output_config();
  bool ok = true;
  if (!cfg.metrics_path.empty()) {
    std::string doc =
        MetricsJson(Registry::Global(), Sink(), /*include_runtime=*/false);
    doc.push_back('\n');
    ok = WriteFile(cfg.metrics_path, doc, error) && ok;
  }
  if (!cfg.trace_path.empty()) {
    StopTracing();
    std::string doc = TraceRecorder::Global().Json();
    doc.push_back('\n');
    ok = WriteFile(cfg.trace_path, doc, error) && ok;
  }
  return ok;
}

}  // namespace obs
}  // namespace mamdr

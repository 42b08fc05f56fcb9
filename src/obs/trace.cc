#include "obs/trace.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "common/mutex.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace mamdr {
namespace obs {
namespace {

// Hard cap on buffered spans: at ~100 bytes/event this bounds a recorder at
// roughly 100 MB, enough for hours of epoch-granularity spans but a backstop
// against an accidentally traced per-element hot loop.
constexpr size_t kMaxEvents = 1u << 20;

// Small dense thread ids so the Chrome viewer groups rows sensibly; the
// first thread to record gets tid 0, and ids are process-lifetime stable.
int CurrentTid() {
  static std::atomic<int> next{0};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void AppendHexId(uint64_t id, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", id);
  *out += buf;
}

}  // namespace

struct TraceRecorder::Impl {
  mutable Mutex mu{MAMDR_LOCK_CLASS("obs.trace")};
  std::vector<TraceEvent> events MAMDR_GUARDED_BY(mu);
  uint64_t dropped MAMDR_GUARDED_BY(mu) = 0;
  int pid MAMDR_GUARDED_BY(mu) = 1;
  std::string process_name MAMDR_GUARDED_BY(mu);
  std::atomic<bool> enabled{false};
  std::atomic<int64_t> base_us{0};
};

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder::~TraceRecorder() { delete impl_; }

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* g = new TraceRecorder();  // leaked: spans end at exit
  return *g;
}

void TraceRecorder::Start() {
  {
    MutexLock lock(&impl_->mu);
    impl_->events.clear();
    impl_->dropped = 0;
  }
  impl_->base_us.store(MonotonicMicros(), std::memory_order_relaxed);
  impl_->enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Stop() {
  impl_->enabled.store(false, std::memory_order_release);
}

bool TraceRecorder::enabled() const {
  return impl_->enabled.load(std::memory_order_acquire);
}

void TraceRecorder::SetProcess(int pid, std::string name) {
  MutexLock lock(&impl_->mu);
  impl_->pid = pid;
  impl_->process_name = std::move(name);
}

void TraceRecorder::Record(TraceEvent e) {
  if (!enabled()) return;
  e.ts_us -= impl_->base_us.load(std::memory_order_relaxed);
  e.tid = CurrentTid();
  MutexLock lock(&impl_->mu);
  if (impl_->events.size() >= kMaxEvents) {
    ++impl_->dropped;
    return;
  }
  impl_->events.push_back(std::move(e));
}

size_t TraceRecorder::event_count() const {
  MutexLock lock(&impl_->mu);
  return impl_->events.size();
}

uint64_t TraceRecorder::dropped_count() const {
  MutexLock lock(&impl_->mu);
  return impl_->dropped;
}

std::vector<TraceEvent> TraceRecorder::SnapshotEvents() const {
  MutexLock lock(&impl_->mu);
  return impl_->events;
}

std::string TraceRecorder::Json() const {
  MutexLock lock(&impl_->mu);
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  if (!impl_->process_name.empty()) {
    // Chrome metadata event naming the process row in merged views.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":",
                  impl_->pid);
    out += buf;
    AppendJsonString(impl_->process_name, &out);
    out += "}}";
    first = false;
  }
  for (const TraceEvent& e : impl_->events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(e.name, &out);
    out += ",\"cat\":";
    AppendJsonString(e.category, &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                  ",\"pid\":%d,\"tid\":%d",
                  e.ts_us, e.dur_us, impl_->pid, e.tid);
    out += buf;
    if (e.trace_id != 0 || !e.tags.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      if (e.trace_id != 0) {
        out += "\"trace_id\":";
        AppendHexId(e.trace_id, &out);
        out += ",\"span_id\":";
        AppendHexId(e.span_id, &out);
        if (e.parent_span_id != 0) {
          out += ",\"parent_span_id\":";
          AppendHexId(e.parent_span_id, &out);
        }
        first_arg = false;
      }
      for (const auto& kv : e.tags) {
        if (!first_arg) out.push_back(',');
        first_arg = false;
        AppendJsonString(kv.first, &out);
        out.push_back(':');
        AppendJsonString(kv.second, &out);
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ms\",\"mamdrMeta\":{\"base_us\":%" PRId64
                ",\"pid\":%d,\"process\":",
                impl_->base_us.load(std::memory_order_relaxed), impl_->pid);
  out += buf;
  AppendJsonString(impl_->process_name, &out);
  out += "}}";
  return out;
}

void StartTracing() { TraceRecorder::Global().Start(); }

void StopTracing() { TraceRecorder::Global().Stop(); }

}  // namespace obs
}  // namespace mamdr

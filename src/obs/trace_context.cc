#include "obs/trace_context.h"

#include <unistd.h>

#include <atomic>

#include "obs/clock.h"

namespace mamdr {
namespace obs {
namespace {

thread_local TraceContext g_ambient;

// splitmix64: a full-period mixer, so sequential counter values come out
// looking independent. Quality matters only for readability of merged
// traces; collisions are guarded by the process-unique seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t NextId() {
  static const uint64_t seed =
      Mix((static_cast<uint64_t>(::getpid()) << 32) ^
          static_cast<uint64_t>(MonotonicMicros()));
  static std::atomic<uint64_t> counter{0};
  uint64_t id = 0;
  while (id == 0) {
    id = Mix(seed + counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

}  // namespace

uint64_t NewTraceId() { return NextId(); }
uint64_t NewSpanId() { return NextId(); }

TraceContext CurrentTraceContext() { return g_ambient; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) : saved_(g_ambient) {
  g_ambient = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { g_ambient = saved_; }

ContextSpan::ContextSpan(SpanName name, const char* category,
                         TraceRecorder* recorder) {
  Open(std::move(name), category, g_ambient, recorder,
       /*install_ambient=*/true);
}

ContextSpan::ContextSpan(SpanName name, const char* category,
                         TraceContext parent, TraceRecorder* recorder) {
  Open(std::move(name), category, parent, recorder,
       /*install_ambient=*/false);
}

void ContextSpan::Open(SpanName name, const char* category,
                       TraceContext parent, TraceRecorder* recorder,
                       bool install_ambient) {
  recorder_ = (recorder != nullptr) ? recorder : &TraceRecorder::Global();
  if (!recorder_->enabled()) return;
  name_ = name.Take();
  category_ = category;
  if (parent.valid()) {
    ctx_.trace_id = parent.trace_id;
    parent_span_id_ = parent.span_id;
  } else {
    ctx_.trace_id = NewTraceId();
    parent_span_id_ = 0;
  }
  ctx_.span_id = NewSpanId();
  if (install_ambient) {
    saved_ambient_ = g_ambient;
    g_ambient = ctx_;
    installed_ = true;
  }
  start_us_ = MonotonicMicros();
}

ContextSpan::~ContextSpan() {
  if (!active()) return;
  if (installed_) g_ambient = saved_ambient_;
  TraceEvent e;
  e.name = std::move(name_);
  e.category = category_;
  e.ts_us = start_us_;
  e.dur_us = MonotonicMicros() - start_us_;
  e.trace_id = ctx_.trace_id;
  e.span_id = ctx_.span_id;
  e.parent_span_id = parent_span_id_;
  e.tags = std::move(tags_);
  recorder_->Record(std::move(e));
}

void ContextSpan::AddTag(std::string key, std::string value) {
  if (!active()) return;
  tags_.emplace_back(std::move(key), std::move(value));
}

void ContextSpan::SetError(const std::string& message) {
  AddTag("error", message);
}

}  // namespace obs
}  // namespace mamdr

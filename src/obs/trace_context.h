// Distributed trace context: Dapper-style {trace_id, span_id} identity
// that rides RPC request frames so a cross-process (or cross-shard)
// operation renders as one causal tree after tools/mamdr_tracemerge.py.
//
// Model:
//   - A *trace* groups every span caused by one root operation; all spans
//     in the tree share trace_id.
//   - A *span* is one timed region with its own span_id and its parent's
//     span_id. ContextSpan is the RAII recorder for one span.
//   - Each thread carries an *ambient* context (CurrentTraceContext()):
//     the span a new child should attach under. ContextSpan installs its
//     own context for its scope, so nesting is automatic; ScopedTraceContext
//     installs a propagated context (e.g. server side, decoded off the
//     wire) without opening a span.
//
// When the target recorder is not collecting, every operation here is a
// cheap no-op and context() stays invalid — callers use
// `span.context().valid()` as the "should I propagate?" gate, which is
// also what keeps traced and untraced wire frames byte-identical per op.
//
// Ids are 64-bit, nonzero when valid, and unique across processes (mixed
// from pid + clock + a process-local counter). They are debugging
// identifiers only and never feed any deterministic (golden-tested)
// output.
#ifndef MAMDR_OBS_TRACE_CONTEXT_H_
#define MAMDR_OBS_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace mamdr {
namespace obs {

/// Identity of one span, as propagated on the wire. trace_id == 0 means
/// "no trace": nothing propagates and children start fresh.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Fresh process-unique nonzero ids.
uint64_t NewTraceId();
uint64_t NewSpanId();

/// The calling thread's ambient context (invalid if none installed).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the calling thread's ambient context for its scope
/// (restores the previous one on destruction). Used where a context
/// arrives from elsewhere — decoded from a request frame, or handed to a
/// worker thread — rather than opened by a local ContextSpan.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// A span's name: a string literal kept as a pointer, or a dynamically
/// built string (e.g. per-domain or per-op). The literal form is copied
/// only when the recorder is collecting, so an untraced literal-named span
/// never allocates. Write a literal name bare: `std::string("...")`
/// compiles but takes the owned path and may allocate even when tracing is
/// off (tools/mamdr_lint.py rule span-literal).
class SpanName {
 public:
  SpanName(const char* literal) : literal_(literal) {}  // NOLINT(google-explicit-constructor)
  SpanName(std::string name) : owned_(std::move(name)) {}  // NOLINT(google-explicit-constructor)

  /// The name as a string; consumes the owned form.
  std::string Take() {
    return literal_ != nullptr ? std::string(literal_) : std::move(owned_);
  }

 private:
  const char* literal_ = nullptr;
  std::string owned_;
};

/// RAII span carrying distributed-trace identity — the one span type.
///
/// On construction (only while `recorder` — default the global recorder —
/// is collecting): allocates a span_id and parents under the ambient
/// context (or the explicit `parent`; a new root trace if neither is
/// valid). An ambient-parented span installs itself as the ambient context
/// for its scope, so lexical nesting builds the tree automatically; an
/// explicit-parent span does NOT touch the ambient context, which makes it
/// safe for siblings with overlapping lifetimes (one per fan-out target)
/// and for contexts that arrived from another thread or off the wire. On
/// destruction: records one complete event with any tags added along the
/// way.
class ContextSpan {
 public:
  ContextSpan(SpanName name, const char* category,
              TraceRecorder* recorder = nullptr);
  /// Child of an explicit parent (server side: the context decoded off
  /// the wire; fan-out: the fanout span from another thread).
  ContextSpan(SpanName name, const char* category, TraceContext parent,
              TraceRecorder* recorder = nullptr);
  ~ContextSpan();

  ContextSpan(const ContextSpan&) = delete;
  ContextSpan& operator=(const ContextSpan&) = delete;

  /// True when the span is being recorded (recorder was collecting at
  /// construction).
  bool active() const { return start_us_ >= 0; }

  /// This span's identity — what a child RPC should carry as its parent.
  /// Invalid when inactive.
  TraceContext context() const { return ctx_; }

  /// Attach a key/value to the emitted event ("args" in the Chrome
  /// trace). No-op when inactive.
  void AddTag(std::string key, std::string value);

  /// Tags the span as failed: error="message". No-op when inactive.
  void SetError(const std::string& message);

 private:
  void Open(SpanName name, const char* category, TraceContext parent,
            TraceRecorder* recorder, bool install_ambient);

  TraceRecorder* recorder_ = nullptr;
  std::string name_;
  const char* category_ = nullptr;
  int64_t start_us_ = -1;  // -1: recorder was off at construction
  TraceContext ctx_;
  uint64_t parent_span_id_ = 0;
  bool installed_ = false;
  TraceContext saved_ambient_;
  std::vector<std::pair<std::string, std::string>> tags_;
};

}  // namespace obs
}  // namespace mamdr

#endif  // MAMDR_OBS_TRACE_CONTEXT_H_

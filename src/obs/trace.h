// Trace recorders exporting Chrome chrome://tracing JSON.
//
// Spans are recorded by obs::ContextSpan (obs/trace_context.h), the one
// span type: it carries a trace_id / span_id / parent_span_id identity, so
// nested spans render as a tree.
//
// Tracing is off by default. StartTracing()/StopTracing() bracket a
// recording on the process-global recorder, `TraceRecorder::Global()`;
// its Json() renders the collected events as a Chrome trace
// ({"traceEvents":[...]}, "ph":"X" complete events, ts/dur in
// microseconds relative to the Start() call).
//
// Recorders are also available as instances (`TraceRecorder`) so a process
// hosting several logical services — e.g. in-process PS shard servers —
// can give each its own event buffer and trace file.
//
// Events carry their span identity plus string tags; these render into
// each event's "args" object. The document also carries a "mamdrMeta"
// header (base timestamp, pid, process name) that
// tools/mamdr_tracemerge.py uses to stitch per-process files into one
// timeline.
//
// Trace timestamps are wall-time and therefore never part of the
// deterministic metrics export — traces are a debugging surface, metrics
// are the golden-tested one.
#ifndef MAMDR_OBS_TRACE_H_
#define MAMDR_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mamdr {
namespace obs {

/// One complete ("ph":"X") event. `ts_us` is absolute MonotonicMicros()
/// when passed to TraceRecorder::Record (the recorder rebases it to the
/// recording start), and recording-relative in SnapshotEvents()/Json().
struct TraceEvent {
  std::string name;
  const char* category = "mamdr";
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int tid = 0;
  // Distributed-trace identity; 0 = not part of a distributed trace.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// A bounded in-memory span buffer rendering to Chrome trace JSON.
/// All methods are thread-safe.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-global recorder used by StartTracing() and by spans
  /// that name no recorder.
  static TraceRecorder& Global();

  /// Begin collecting (clears any previous recording and re-bases
  /// timestamps at "now").
  void Start();
  /// Stop collecting. Spans that end after this call are dropped.
  void Stop();
  bool enabled() const;

  /// Identity stamped into the emitted document so merged views can tell
  /// processes apart. Defaults to pid 1 / empty name.
  void SetProcess(int pid, std::string name);

  /// Append one event (no-op unless enabled; drops once full). `e.ts_us`
  /// must be an absolute MonotonicMicros() reading.
  void Record(TraceEvent e);

  size_t event_count() const;
  uint64_t dropped_count() const;
  /// Copy of the recorded events (ts_us relative to the most recent
  /// Start()).
  std::vector<TraceEvent> SnapshotEvents() const;

  /// Render as a chrome://tracing JSON document.
  std::string Json() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Begin collecting spans on the global recorder (clears any previous
/// recording and re-bases timestamps at "now"). Thread-safe.
void StartTracing();

/// Stop collecting on the global recorder. Spans that end after this call
/// are dropped.
void StopTracing();

}  // namespace obs
}  // namespace mamdr

#endif  // MAMDR_OBS_TRACE_H_

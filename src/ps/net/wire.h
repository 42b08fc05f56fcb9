// RPC message layer of the sharded parameter server.
//
// Sits directly above the common/net frame codec: a frame payload is one
// request or one response in the little-endian format below. Everything is
// bounds-checked on read — a PayloadReader never walks past its buffer and
// every malformed message (short payload, bad op byte, trailing garbage,
// element counts that disagree with the advertised sizes) becomes a clean
// kInvalidArgument. Combined with the frame CRC this gives two independent
// layers of corruption rejection: random bit flips die at the CRC, and
// protocol-level confusion (stale client, truncated-but-CRC-valid replay)
// dies here.
//
// Request payload:   u8 op  |  [trace context]  |  op-specific body (PsOp)
// Response payload:  u8 status code  |  string message  |  ok-only body
//
// The op byte's top bit (kTraceFlag) version-gates an optional distributed
// trace context — u64 trace_id | u64 parent span_id — between the op byte
// and the body. Op values stay below 0x80, so a peer that predates tracing
// decodes untraced frames unchanged and rejects a flagged frame at its
// op-byte check instead of misparsing it; clients only set the flag while
// a trace is actually recording.
//
// A `string` is u32 length + raw bytes; f32 arrays are u64 count + IEEE
// floats; row ids are i64 carried as u64 two's complement.
#ifndef MAMDR_PS_NET_WIRE_H_
#define MAMDR_PS_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace mamdr {
namespace ps {
namespace net {

/// RPC operations understood by ShardServer.
enum class PsOp : uint8_t {
  /// Health probe: empty body, empty ok-response.
  kPing = 1,
  /// Pull dense tensors: u32 n, n×u32 param_idx.
  /// Response body: n×{u32 param_idx, u64 size, f32[size]}.
  kPullParams = 2,
  /// Push dense deltas (server applies += beta*delta):
  /// f32 beta, u32 n, n×{u32 param_idx, u64 size, f32[size]}.
  kPushParams = 3,
  /// Pull embedding rows: u32 param_idx, u64 nrows, nrows×i64 row.
  /// Response body: u64 dim, f32[nrows*dim] (row-major, request order).
  kPullRows = 4,
  /// Push row deltas: u32 param_idx, f32 beta, u64 nrows, nrows×i64 row,
  /// u64 dim, f32[nrows*dim].
  kPushRows = 5,
  /// Like kPushParams but assignment (checkpoint restore): u32 n,
  /// n×{u32 param_idx, u64 size, f32[size]}.
  kRestoreParams = 6,
  /// Like kPushRows but assignment: u32 param_idx, u64 nrows, nrows×i64,
  /// u64 dim, f32[nrows*dim].
  kRestoreRows = 7,
};

/// Op values run 1..kNumPsOps; per-op tables are indexed by the op byte.
constexpr uint8_t kNumPsOps = static_cast<uint8_t>(PsOp::kRestoreRows);

/// The op's metric-label and span-name spelling ("pull_rows", ...);
/// "unknown" for a byte outside the enum.
const char* PsOpName(PsOp op);

/// Components that open one span per PS RPC (see PsSpanName).
enum class PsSpan : uint8_t {
  kClientRpc,      // "ps.client.rpc"
  kClientAttempt,  // "ps.client.attempt"
  kClientFanout,   // "ps.client.fanout"
  kClientShard,    // "ps.client.shard"
  kShardHandle,    // "ps.shard.handle"
};

/// The span name "<component>:<PsOpName(op)>" (docs/ARCHITECTURE.md
/// "Observability"): the name pins what the span measures, tags carry the
/// per-instance detail (shard, attempt, frames). Every name is built once
/// and lives for the process, so callers pass it in obs::SpanName's literal
/// form and an untraced RPC allocates nothing for its spans.
const char* PsSpanName(PsSpan component, PsOp op);

/// Upper bound on one frame payload (request or response) for every party:
/// clients, shards and the fault proxy.
constexpr size_t kMaxFrameBytes = size_t{64} << 20;

/// Top bit of the request op byte: "a trace context follows". Every PsOp
/// value must stay below this.
constexpr uint8_t kTraceFlag = 0x80;

/// Decoded request header: which op, and (when the frame was flagged) the
/// distributed-trace identity of the client span that issued it.
struct RequestEnvelope {
  uint8_t op = 0;  // raw op value, flag stripped; validate against PsOp
  uint64_t trace_id = 0;  // 0 = untraced request
  uint64_t parent_span_id = 0;
};

/// Little-endian payload builder.
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF32(float v);
  /// Raw floats, no count prefix (callers write their own counts).
  void PutF32Array(const float* p, size_t n);
  /// u32 length + bytes.
  void PutString(const std::string& s);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian payload parser. Every getter fails with
/// kInvalidArgument once the buffer is exhausted; a fully-parsed message
/// must end exactly at the buffer end (ExpectEnd).
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& buf) : buf_(buf) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetF32(float* out);
  Status GetF32Array(float* out, size_t n);
  /// u32 length (capped at `max_len`) + bytes.
  Status GetString(std::string* out, size_t max_len);

  size_t remaining() const { return buf_.size() - pos_; }
  /// Trailing bytes after the last expected field are a malformed message.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;
  const std::string& buf_;
  size_t pos_ = 0;
};

/// Write the request header: op byte (flagged iff trace_id != 0) plus the
/// trace context when present. The op body is appended by the caller.
void BeginRequest(PayloadWriter* w, PsOp op, uint64_t trace_id,
                  uint64_t parent_span_id);

/// Parse the request header, leaving `r` positioned at the op body. A
/// flagged frame whose context is truncated fails kInvalidArgument.
Status DecodeRequestEnvelope(PayloadReader* r, RequestEnvelope* out);

/// Status code <-> wire byte. FromWire rejects bytes outside the enum.
uint8_t StatusCodeToWire(StatusCode code);
Result<StatusCode> StatusCodeFromWire(uint8_t wire);

/// Response helpers: every response starts u8 code + string message; a
/// non-OK response carries no body.
std::string EncodeErrorResponse(const Status& status);
/// Start an ok response; the op-specific body is appended to `w` after.
void BeginOkResponse(PayloadWriter* w);
/// Parse the response header. Returns the remote Status (reconstructed
/// code+message); on OK the reader is positioned at the body. A response
/// too malformed to parse is itself kInvalidArgument.
Status DecodeResponseHeader(PayloadReader* r);

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_WIRE_H_

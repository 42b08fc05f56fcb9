#include "ps/net/wire.h"

#include <cstring>

namespace mamdr {
namespace ps {
namespace net {

const char* PsOpName(PsOp op) {
  switch (op) {
    case PsOp::kPing:
      return "ping";
    case PsOp::kPullParams:
      return "pull_params";
    case PsOp::kPushParams:
      return "push_params";
    case PsOp::kPullRows:
      return "pull_rows";
    case PsOp::kPushRows:
      return "push_rows";
    case PsOp::kRestoreParams:
      return "restore_params";
    case PsOp::kRestoreRows:
      return "restore_rows";
  }
  return "unknown";
}

void PayloadWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::PutF32(float v) {
  // float is IEEE-754 binary32 on every supported target; byte order is
  // pinned by going through the integer writer.
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void PayloadWriter::PutF32Array(const float* p, size_t n) {
  // Hot path for row payloads: bulk-append, then fix endianness only if
  // needed (all supported targets are little-endian; memcpy matches the
  // wire format directly).
  const size_t old = buf_.size();
  buf_.resize(old + n * sizeof(float));
  std::memcpy(&buf_[old], p, n * sizeof(float));
}

void PayloadWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_ += s;
}

Status PayloadReader::Need(size_t n) const {
  if (buf_.size() - pos_ < n) {
    return Status::InvalidArgument(
        "ps wire: short payload (need " + std::to_string(n) + " bytes at " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()) + ")");
  }
  return Status::OK();
}

Status PayloadReader::GetU8(uint8_t* out) {
  MAMDR_RETURN_IF_ERROR(Need(1));
  *out = static_cast<uint8_t>(buf_[pos_++]);
  return Status::OK();
}

Status PayloadReader::GetU32(uint32_t* out) {
  MAMDR_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status PayloadReader::GetU64(uint64_t* out) {
  MAMDR_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status PayloadReader::GetI64(int64_t* out) {
  uint64_t v = 0;
  MAMDR_RETURN_IF_ERROR(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status PayloadReader::GetF32(float* out) {
  uint32_t bits = 0;
  MAMDR_RETURN_IF_ERROR(GetU32(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status PayloadReader::GetF32Array(float* out, size_t n) {
  MAMDR_RETURN_IF_ERROR(Need(n * sizeof(float)));
  std::memcpy(out, buf_.data() + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return Status::OK();
}

Status PayloadReader::GetString(std::string* out, size_t max_len) {
  uint32_t len = 0;
  MAMDR_RETURN_IF_ERROR(GetU32(&len));
  if (len > max_len) {
    return Status::InvalidArgument("ps wire: string length " +
                                   std::to_string(len) + " exceeds limit " +
                                   std::to_string(max_len));
  }
  MAMDR_RETURN_IF_ERROR(Need(len));
  out->assign(buf_, pos_, len);
  pos_ += len;
  return Status::OK();
}

Status PayloadReader::ExpectEnd() const {
  if (pos_ != buf_.size()) {
    return Status::InvalidArgument("ps wire: " +
                                   std::to_string(remaining()) +
                                   " trailing bytes after message end");
  }
  return Status::OK();
}

void BeginRequest(PayloadWriter* w, PsOp op, uint64_t trace_id,
                  uint64_t parent_span_id) {
  uint8_t op_byte = static_cast<uint8_t>(op);
  if (trace_id != 0) op_byte |= kTraceFlag;
  w->PutU8(op_byte);
  if (trace_id != 0) {
    w->PutU64(trace_id);
    w->PutU64(parent_span_id);
  }
}

Status DecodeRequestEnvelope(PayloadReader* r, RequestEnvelope* out) {
  uint8_t op_byte = 0;
  MAMDR_RETURN_IF_ERROR(r->GetU8(&op_byte));
  out->op = static_cast<uint8_t>(op_byte & ~kTraceFlag);
  out->trace_id = 0;
  out->parent_span_id = 0;
  if ((op_byte & kTraceFlag) != 0) {
    MAMDR_RETURN_IF_ERROR(r->GetU64(&out->trace_id));
    MAMDR_RETURN_IF_ERROR(r->GetU64(&out->parent_span_id));
    if (out->trace_id == 0) {
      return Status::InvalidArgument(
          "ps wire: flagged trace context with zero trace_id");
    }
  }
  return Status::OK();
}

uint8_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint8_t>(code);
}

Result<StatusCode> StatusCodeFromWire(uint8_t wire) {
  if (wire > static_cast<uint8_t>(StatusCode::kAborted)) {
    return Status::InvalidArgument("ps wire: unknown status code " +
                                   std::to_string(wire));
  }
  return static_cast<StatusCode>(wire);
}

std::string EncodeErrorResponse(const Status& status) {
  PayloadWriter w;
  w.PutU8(StatusCodeToWire(status.code()));
  w.PutString(status.message());
  return w.Take();
}

void BeginOkResponse(PayloadWriter* w) {
  w->PutU8(StatusCodeToWire(StatusCode::kOk));
  w->PutString("");
}

Status DecodeResponseHeader(PayloadReader* r) {
  uint8_t code_byte = 0;
  MAMDR_RETURN_IF_ERROR(r->GetU8(&code_byte));
  MAMDR_ASSIGN_OR_RETURN(const StatusCode code,
                         StatusCodeFromWire(code_byte));
  std::string message;
  MAMDR_RETURN_IF_ERROR(r->GetString(&message, 1 << 16));
  if (code != StatusCode::kOk) return Status(code, std::move(message));
  return Status::OK();
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

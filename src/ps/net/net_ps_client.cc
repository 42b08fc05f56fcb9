#include "ps/net/net_ps_client.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/lockdep.h"
#include "common/net.h"
#include "obs/clock.h"
#include "obs/trace_context.h"

namespace mamdr {
namespace ps {
namespace net {

namespace cnet = ::mamdr::net;

namespace {

/// Strips each response's header into `ok_bodies`, in order. The first
/// non-OK remote status comes back as is: a remote kUnavailable (e.g.
/// mid-failover) stays retryable.
Status DecodeOkBodies(const std::vector<std::string>& responses,
                      std::vector<std::string>* ok_bodies) {
  ok_bodies->clear();
  ok_bodies->reserve(responses.size());
  for (const std::string& resp : responses) {
    PayloadReader r(resp);
    MAMDR_RETURN_IF_ERROR(DecodeResponseHeader(&r));
    ok_bodies->push_back(resp.substr(resp.size() - r.remaining()));
  }
  return Status::OK();
}

std::vector<int64_t> AllRows(int64_t n) {
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  return rows;
}

std::string PullParamsBody(const std::vector<uint32_t>& idxs) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(idxs.size()));
  for (const uint32_t idx : idxs) w.PutU32(idx);
  return w.Take();
}

std::string PullRowsBody(int64_t idx, const std::vector<int64_t>& rows) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(idx));
  w.PutU64(rows.size());
  for (const int64_t row : rows) w.PutI64(row);
  return w.Take();
}

}  // namespace

NetPsClient::NetPsClient(NetPsClientConfig config, ShardDirectory* directory,
                         const std::vector<Tensor>& layout,
                         std::vector<bool> is_embedding)
    : config_(config),
      ring_(config.num_shards),
      directory_(directory),
      is_embedding_(std::move(is_embedding)),
      pool_(config.num_shards, config.rpc_deadline_us) {
  MAMDR_CHECK(directory_ != nullptr);
  MAMDR_CHECK_EQ(directory_->num_shards(), config_.num_shards);
  MAMDR_CHECK_EQ(layout.size(), is_embedding_.size());
  shapes_.reserve(layout.size());
  for (const Tensor& t : layout) shapes_.push_back(t.shape());

  dense_by_shard_.resize(static_cast<size_t>(config_.num_shards));
  for (size_t i = 0; i < shapes_.size(); ++i) {
    if (is_embedding_[i]) {
      MAMDR_CHECK_EQ(shapes_[i].size(), 2u);
      continue;
    }
    const int owner = ring_.ShardForDense(static_cast<int64_t>(i));
    dense_by_shard_[static_cast<size_t>(owner)].push_back(
        static_cast<uint32_t>(i));
  }

  retry_.reserve(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    retry_.push_back(std::make_unique<RetryPolicy>(
        config_.retry, config_.retry_seed + static_cast<uint64_t>(s)));
  }

  // 10us .. ~5s exponential buckets: covers loopback RTTs through injected
  // latency spikes and retry storms.
  rpc_us_by_op_.resize(kNumPsOps + 1, nullptr);
  for (uint8_t b = 1; b <= kNumPsOps; ++b) {
    rpc_us_by_op_[b] = obs::Registry::Global().histogram(
        std::string("ps.net.client.rpc_us{op=\"") +
            PsOpName(static_cast<PsOp>(b)) + "\"}",
        obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
        obs::Stability::kRuntime);
  }
  deadline_cut_counter_ = obs::Registry::Global().counter(
      "ps.net.client.deadline_cuts", obs::Stability::kRuntime);
  redial_counter_ = obs::Registry::Global().counter(
      "ps.net.client.redials", obs::Stability::kRuntime);
  fanout_serial_counter_ = obs::Registry::Global().counter(
      "ps.net.client.fanout_serial_fallbacks", obs::Stability::kRuntime);
}

void NetPsClient::EnterOp() {
  // Every op can block on the network; holding any lock across that is the
  // pattern lockdep exists to catch.
  lockdep::AssertNoLocksHeld("ps.net.client.op");
  if (op_hook_) op_hook_();
}

NetPsClient::ExchangeScope::ExchangeScope(std::atomic<bool>* busy)
    : busy_(busy) {
  const bool already_busy = busy_->exchange(true, std::memory_order_acquire);
  // One in-flight exchange per client: the pool holds one connection per
  // shard, and a second exchange would interleave frames on it.
  MAMDR_CHECK(!already_busy);
}

void NetPsClient::CountIfDeadline(const Status& st) {
  if (st.code() != StatusCode::kDeadlineExceeded) return;
  deadline_cuts_.fetch_add(1, std::memory_order_relaxed);
  deadline_cut_counter_->Add();
}

// --- Transport -------------------------------------------------------------

NetPsClient::ShardBatch NetPsClient::OneFrame(int shard, PsOp op,
                                              std::string body) {
  ShardBatch batch{shard, {}};
  batch.requests.push_back({op, std::move(body)});
  return batch;
}

std::vector<NetPsClient::ShardBatch> NetPsClient::DropEmpty(
    std::vector<ShardBatch> batches) {
  batches.erase(std::remove_if(batches.begin(), batches.end(),
                               [](const ShardBatch& b) {
                                 return b.requests.empty();
                               }),
                batches.end());
  return batches;
}

std::vector<std::string> NetPsClient::FrameBatch(
    const std::vector<ShardRequest>& requests, const obs::TraceContext& ctx) {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const ShardRequest& req : requests) {
    PayloadWriter w;
    BeginRequest(&w, req.op, ctx.trace_id, ctx.span_id);
    frames.push_back(w.Take() + req.body);
  }
  return frames;
}

void NetPsClient::Attempt(std::vector<Exchange>* exchanges) {
  const ExchangeScope scope(&in_exchange_);
  // Pipelined: every frame goes out on every lease before any response is
  // read, so an attempt costs one round trip however many shards and
  // frames it carries.
  for (Exchange& x : *exchanges) {
    x.status = Status::OK();
    x.responses.clear();
    for (const std::string& frame : *x.frames) {
      x.status = cnet::WriteFrame(x.lease.fd.get(), frame);
      if (!x.status.ok()) break;
    }
  }
  // Read phase, lease after lease; each lease's responses arrive in its
  // request order.
  for (Exchange& x : *exchanges) {
    while (x.status.ok() && x.responses.size() < x.frames->size()) {
      Result<std::string> r =
          cnet::ReadFrame(x.lease.fd.get(), kMaxFrameBytes);
      if (r.ok()) {
        x.responses.push_back(std::move(r).value());
      } else {
        x.status = r.status();
      }
    }
  }
}

Result<std::vector<std::string>> NetPsClient::CallFramesOnce(
    int shard, const std::vector<std::string>& frames,
    obs::Histogram* rpc_us) {
  const int64_t start_us = obs::MonotonicMicros();
  const int port = directory_->GetPort(shard);
  if (port == 0) {
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " is down");
  }

  Result<ConnectionPool::Lease> acquired = [&] {
    obs::ContextSpan acquire_span("ps.client.pool.acquire", "ps.client");
    acquire_span.AddTag("shard", std::to_string(shard));
    Result<ConnectionPool::Lease> a = pool_.Acquire(shard, port);
    if (a.ok()) {
      acquire_span.AddTag("reused", a.value().reused ? "true" : "false");
    } else {
      acquire_span.SetError(a.status().message());
    }
    return a;
  }();
  if (!acquired.ok()) return acquired.status();
  std::vector<Exchange> exchange(1);
  exchange[0].lease = std::move(acquired).value();
  exchange[0].frames = &frames;
  const bool was_reused = exchange[0].lease.reused;
  Attempt(&exchange);
  Status st = exchange[0].status;
  pool_.Release(std::move(exchange[0].lease), /*healthy=*/st.ok());
  if (!st.ok() && was_reused &&
      st.code() != StatusCode::kDeadlineExceeded) {
    // A reused connection that fails on first use may simply have gone
    // stale in the cache (server idle-close whose FIN raced the probe).
    // Redial fresh and re-run the attempt once WITHOUT charging the
    // retry budget: both outcomes of that race then consume identical
    // retry schedules, which keeps same-seed chaos runs bit-identical.
    // Like any transport retry, this can double-apply a push whose
    // response was lost — the bounded loss class ARCHITECTURE.md
    // documents for retried pushes. A deadline cut is excluded: the
    // deadline already spent this attempt's time budget.
    redial_counter_->Add();
    obs::ContextSpan redial_span("ps.client.redial", "ps.client");
    redial_span.AddTag("shard", std::to_string(shard));
    Result<ConnectionPool::Lease> fresh =
        pool_.Acquire(shard, directory_->GetPort(shard));
    if (!fresh.ok()) {
      st = fresh.status();
    } else {
      exchange[0].lease = std::move(fresh).value();
      Attempt(&exchange);
      st = exchange[0].status;
      pool_.Release(std::move(exchange[0].lease), /*healthy=*/st.ok());
    }
    if (!st.ok()) redial_span.SetError(st.message());
  }

  if (rpc_us != nullptr) {
    rpc_us->Observe(static_cast<double>(obs::MonotonicMicros() - start_us));
  }
  if (st.code() == StatusCode::kDeadlineExceeded) {
    // The shard stopped making progress for a whole deadline. Map it to
    // kUnavailable so the retry layer re-attempts.
    CountIfDeadline(st);
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " rpc deadline exceeded");
  }
  if (!st.ok() && st.code() == StatusCode::kInvalidArgument) {
    // A response frame that fails CRC/framing was damaged in transit, so
    // map it to the retryable code. The request may already have applied —
    // a retried push can then double-apply, the same bounded loss class as
    // a dropped push (see ARCHITECTURE.md). A *remote* kInvalidArgument
    // decoded from a valid frame is a real rejection and passes through
    // CallBatch untouched.
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " response frame damaged: " + st.message());
  }
  if (!st.ok()) return st;
  return std::move(exchange[0].responses);
}

Status NetPsClient::CallBatch(const ShardBatch& batch,
                              std::vector<std::string>* ok_bodies,
                              const char* what) {
  const PsOp op = batch.requests[0].op;
  obs::ContextSpan rpc_span(PsSpanName(PsSpan::kClientRpc, op), "ps.client");
  rpc_span.AddTag("shard", std::to_string(batch.shard));
  rpc_span.AddTag("frames", std::to_string(batch.requests.size()));
  // The batch's latency lands in the first op's histogram: a pipelined
  // batch is one wire round trip, and splitting it per op would count the
  // same elapsed time N times.
  obs::Histogram* rpc_us = rpc_us_by_op_[static_cast<uint8_t>(op)];

  // Untraced attempts reuse one prebuilt set of frames; traced attempts
  // each open their own span and re-frame so the context on the wire names
  // the attempt that actually reached the shard.
  std::vector<std::string> untraced;
  int attempt = 0;
  const Status st = retry_[static_cast<size_t>(batch.shard)]->Run(
      [&]() -> Status {
        obs::ContextSpan attempt_span(PsSpanName(PsSpan::kClientAttempt, op),
                                      "ps.client");
        attempt_span.AddTag("shard", std::to_string(batch.shard));
        attempt_span.AddTag("attempt", std::to_string(attempt++));
        std::vector<std::string> traced;
        const std::vector<std::string>* frames = &untraced;
        if (attempt_span.active()) {
          traced = FrameBatch(batch.requests, attempt_span.context());
          frames = &traced;
        } else if (untraced.empty()) {
          untraced = FrameBatch(batch.requests, obs::TraceContext{});
        }
        Result<std::vector<std::string>> responses =
            CallFramesOnce(batch.shard, *frames, rpc_us);
        // An attempt is all-or-nothing: any non-OK response fails (and
        // retries) the whole batch.
        const Status attempt_st =
            responses.ok() ? DecodeOkBodies(responses.value(), ok_bodies)
                           : responses.status();
        if (!attempt_st.ok()) attempt_span.SetError(attempt_st.message());
        return attempt_st;
      },
      what);
  if (!st.ok()) rpc_span.SetError(st.message());
  return st;
}

Status NetPsClient::FanoutCall(const std::vector<ShardBatch>& batches,
                               std::vector<std::string>* ok_bodies,
                               const char* what) {
  ok_bodies->clear();
  const size_t n = batches.size();
  if (n == 0) return Status::OK();
  for (const ShardBatch& b : batches) MAMDR_CHECK(!b.requests.empty());
  const PsOp op = batches[0].requests[0].op;
  obs::ContextSpan fanout_span(PsSpanName(PsSpan::kClientFanout, op),
                               "ps.client");
  fanout_span.AddTag("shards", std::to_string(n));
  std::vector<std::vector<std::string>> bodies(n);
  std::vector<bool> done(n, false);
  if (n > 1) {
    const int64_t start_us = obs::MonotonicMicros();
    // One child span per target shard; each shard's frames carry its
    // child's context, so the server handler spans for shard i link under
    // exactly one of these.
    std::vector<std::unique_ptr<obs::ContextSpan>> shard_spans(n);
    std::vector<std::vector<std::string>> frames(n);
    for (size_t i = 0; i < n; ++i) {
      obs::TraceContext ctx;
      if (fanout_span.active()) {
        shard_spans[i] = std::make_unique<obs::ContextSpan>(
            PsSpanName(PsSpan::kClientShard, batches[i].requests[0].op),
            "ps.client", fanout_span.context());
        shard_spans[i]->AddTag("shard", std::to_string(batches[i].shard));
        ctx = shard_spans[i]->context();
      }
      frames[i] = FrameBatch(batches[i].requests, ctx);
    }
    // One pooled connection per target, acquired in batch order. A shard
    // that is down or refuses the dial stays on the retried path below.
    std::vector<Exchange> exchanges;
    std::vector<size_t> batch_of;  // exchanges[j] carries batches[batch_of[j]]
    exchanges.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const int shard = batches[i].shard;
      Result<ConnectionPool::Lease> acquired =
          pool_.Acquire(shard, directory_->GetPort(shard));
      if (!acquired.ok()) continue;
      exchanges.emplace_back();
      exchanges.back().lease = std::move(acquired).value();
      exchanges.back().frames = &frames[i];
      batch_of.push_back(i);
    }
    // Each connection carries the pool's I/O deadline, so a stalled shard
    // costs this pass one deadline (k stalled shards, up to k) before it
    // retries under its own budget.
    Attempt(&exchanges);
    for (size_t j = 0; j < exchanges.size(); ++j) {
      Exchange& x = exchanges[j];
      CountIfDeadline(x.status);
      // A valid frame whose remote status is non-OK leaves the connection
      // healthy (the exchange completed) but sends the shard to the
      // retried path, which owns retryability and error mapping.
      pool_.Release(std::move(x.lease), /*healthy=*/x.status.ok());
      const size_t i = batch_of[j];
      done[i] = x.status.ok() && DecodeOkBodies(x.responses, &bodies[i]).ok();
    }
    obs::Histogram* rpc_us = rpc_us_by_op_[static_cast<uint8_t>(op)];
    if (rpc_us != nullptr) {
      rpc_us->Observe(static_cast<double>(obs::MonotonicMicros() - start_us));
    }
    uint64_t fell_back = 0;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      ++fell_back;
      if (shard_spans[i] != nullptr) {
        shard_spans[i]->SetError("pipelined exchange failed; serial fallback");
      }
    }
    if (fell_back > 0) fanout_serial_counter_->Add(fell_back);
    // Close the per-shard children before any retried call opens its own
    // rpc/attempt spans, so fallback work is not nested under a child that
    // already failed.
    shard_spans.clear();
  }
  // Retried pass: whatever the pipelined pass did not finish — a single
  // target, or a shard whose exchange failed. CallBatch owns the retry
  // budget, stale-redial, and error mapping, so fallback failure semantics
  // are exactly the single-shard path's. A shard that answered with a
  // remote error is re-asked here; PS ops are idempotent under validation
  // errors and a retried push is the same bounded loss class as any
  // transport retry.
  for (size_t i = 0; i < n; ++i) {
    if (done[i]) continue;
    MAMDR_RETURN_IF_ERROR(CallBatch(batches[i], &bodies[i], what));
  }
  for (std::vector<std::string>& shard_bodies : bodies) {
    for (std::string& body : shard_bodies) {
      ok_bodies->push_back(std::move(body));
    }
  }
  return Status::OK();
}

// --- Validation ------------------------------------------------------------

Status NetPsClient::CheckIndex(int64_t idx, bool want_embedding) const {
  if (idx < 0 || idx >= static_cast<int64_t>(shapes_.size())) {
    return Status::InvalidArgument("ps client: param index " +
                                   std::to_string(idx) + " out of range");
  }
  if (want_embedding && !is_embedding_[static_cast<size_t>(idx)]) {
    return Status::InvalidArgument("ps client: param " + std::to_string(idx) +
                                   " is not an embedding table");
  }
  return Status::OK();
}

Status NetPsClient::CheckRows(int64_t idx,
                              const std::vector<int64_t>& rows) const {
  const int64_t n = shapes_[static_cast<size_t>(idx)][0];
  for (int64_t r : rows) {
    if (r < 0 || r >= n) {
      return Status::InvalidArgument(
          "ps client: row " + std::to_string(r) + " outside table " +
          std::to_string(idx) + " (" + std::to_string(n) + " rows)");
    }
  }
  return Status::OK();
}

Status NetPsClient::CheckTableShape(int64_t idx, const Tensor& t,
                                    const char* what) const {
  if (t.shape() != shapes_[static_cast<size_t>(idx)]) {
    return Status::InvalidArgument(
        std::string("ps client: ") + what + " shape " +
        ShapeToString(t.shape()) + " != param " + std::to_string(idx) +
        " shape " + ShapeToString(shapes_[static_cast<size_t>(idx)]));
  }
  return Status::OK();
}

std::vector<std::vector<int64_t>> NetPsClient::GroupRowsByShard(
    int64_t idx, const std::vector<int64_t>& rows) const {
  std::vector<std::vector<int64_t>> by_shard(
      static_cast<size_t>(config_.num_shards));
  for (const int64_t row : rows) {
    by_shard[static_cast<size_t>(ring_.ShardForRow(idx, row))].push_back(row);
  }
  return by_shard;
}

// --- Ops -------------------------------------------------------------------

Status NetPsClient::Ping(int shard) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:ping", "ps.client");
  if (shard < 0 || shard >= config_.num_shards) {
    return Status::InvalidArgument("ping: bad shard " +
                                   std::to_string(shard));
  }
  std::vector<std::string> bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall({OneFrame(shard, PsOp::kPing, "")},
                                   &bodies, "ps.Ping"));
  if (!bodies[0].empty()) {
    return Status::InvalidArgument("ping: unexpected response body");
  }
  return Status::OK();
}

Status NetPsClient::PullDense(std::vector<Tensor>* out) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:pull_dense", "ps.client");
  if (out->size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: pull destination has " + std::to_string(out->size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  std::vector<ShardBatch> batches;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::vector<uint32_t>& idxs = dense_by_shard_[static_cast<size_t>(s)];
    if (idxs.empty()) continue;
    for (const uint32_t idx : idxs) {
      MAMDR_RETURN_IF_ERROR(
          CheckTableShape(idx, (*out)[idx], "pull destination"));
    }
    batches.push_back(OneFrame(s, PsOp::kPullParams, PullParamsBody(idxs)));
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(batches, &ok_bodies, "ps.PullDense"));
  for (size_t k = 0; k < batches.size(); ++k) {
    MAMDR_RETURN_IF_ERROR(DecodePullParamsBody(
        ok_bodies[k], dense_by_shard_[static_cast<size_t>(batches[k].shard)],
        out));
  }
  return Status::OK();
}

Status NetPsClient::DecodePullParamsBody(const std::string& body,
                                         const std::vector<uint32_t>& idxs,
                                         std::vector<Tensor>* out) const {
  PayloadReader r(body);
  for (const uint32_t want : idxs) {
    uint32_t idx = 0;
    uint64_t size = 0;
    MAMDR_RETURN_IF_ERROR(r.GetU32(&idx));
    MAMDR_RETURN_IF_ERROR(r.GetU64(&size));
    if (idx != want ||
        size != static_cast<uint64_t>(NumElements(shapes_[idx]))) {
      return Status::InvalidArgument(
          "pull_params: response entry mismatch for param " +
          std::to_string(want));
    }
    MAMDR_RETURN_IF_ERROR(
        r.GetF32Array((*out)[idx].data(), static_cast<size_t>(size)));
  }
  return r.ExpectEnd();
}

Status NetPsClient::DecodePullRowsBody(const std::string& body, int64_t idx,
                                       const std::vector<int64_t>& rows,
                                       Tensor* into) const {
  const int64_t dim = shapes_[static_cast<size_t>(idx)][1];
  PayloadReader r(body);
  uint64_t got_dim = 0;
  MAMDR_RETURN_IF_ERROR(r.GetU64(&got_dim));
  if (got_dim != static_cast<uint64_t>(dim)) {
    return Status::InvalidArgument(
        "pull_rows: response dim " + std::to_string(got_dim) +
        " != table dim " + std::to_string(dim));
  }
  float* base = into->data();
  for (const int64_t row : rows) {
    MAMDR_RETURN_IF_ERROR(
        r.GetF32Array(base + row * dim, static_cast<size_t>(dim)));
  }
  return r.ExpectEnd();
}

Status NetPsClient::PullRowsFanout(int64_t idx,
                                   const std::vector<int64_t>& rows,
                                   Tensor* into, const char* what) {
  const int64_t dim = shapes_[static_cast<size_t>(idx)][1];
  if (dim <= 0) return Status::OK();  // nothing to move
  const std::vector<std::vector<int64_t>> by_shard =
      GroupRowsByShard(idx, rows);
  std::vector<ShardBatch> batches;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::vector<int64_t>& shard_rows =
        by_shard[static_cast<size_t>(s)];
    if (shard_rows.empty()) continue;
    batches.push_back(
        OneFrame(s, PsOp::kPullRows, PullRowsBody(idx, shard_rows)));
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(batches, &ok_bodies, what));
  for (size_t k = 0; k < batches.size(); ++k) {
    MAMDR_RETURN_IF_ERROR(DecodePullRowsBody(
        ok_bodies[k], idx, by_shard[static_cast<size_t>(batches[k].shard)],
        into));
  }
  return Status::OK();
}

Status NetPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                             Tensor* into) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:pull_rows", "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckRows(idx, rows));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, *into, "pull destination"));
  return PullRowsFanout(idx, rows, into, "ps.PullRows");
}

Status NetPsClient::PullFullTable(int64_t idx, Tensor* into) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:pull_full_table", "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, *into, "pull destination"));
  return PullRowsFanout(idx, AllRows(shapes_[static_cast<size_t>(idx)][0]),
                        into, "ps.PullFullTable");
}

Status NetPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                   float beta) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:push_dense_delta", "ps.client");
  if (delta.size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: dense delta has " + std::to_string(delta.size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  std::vector<ShardBatch> batches;
  for (int s = 0; s < config_.num_shards; ++s) {
    std::vector<uint32_t> idxs;
    for (const uint32_t idx : dense_by_shard_[static_cast<size_t>(s)]) {
      if (delta[idx].empty()) continue;  // skipped, like the direct path
      MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, delta[idx], "dense delta"));
      idxs.push_back(idx);
    }
    if (idxs.empty()) continue;
    PayloadWriter w;
    w.PutF32(beta);
    w.PutU32(static_cast<uint32_t>(idxs.size()));
    for (const uint32_t idx : idxs) {
      w.PutU32(idx);
      w.PutU64(static_cast<uint64_t>(delta[idx].size()));
      w.PutF32Array(delta[idx].data(),
                    static_cast<size_t>(delta[idx].size()));
    }
    batches.push_back(OneFrame(s, PsOp::kPushParams, w.Take()));
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(
      FanoutCall(batches, &ok_bodies, "ps.PushDenseDelta"));
  for (const std::string& body : ok_bodies) {
    if (!body.empty()) {
      return Status::InvalidArgument("push_params: unexpected response body");
    }
  }
  return Status::OK();
}

Status NetPsClient::PushRowDeltas(int64_t idx,
                                  const std::vector<int64_t>& rows,
                                  const Tensor& delta, float beta) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:push_row_deltas", "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckRows(idx, rows));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, delta, "push delta"));
  const int64_t dim = shapes_[static_cast<size_t>(idx)][1];
  if (dim <= 0) return Status::OK();
  const std::vector<std::vector<int64_t>> by_shard =
      GroupRowsByShard(idx, rows);
  std::vector<ShardBatch> batches;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::vector<int64_t>& shard_rows =
        by_shard[static_cast<size_t>(s)];
    if (shard_rows.empty()) continue;
    PayloadWriter w;
    w.PutU32(static_cast<uint32_t>(idx));
    w.PutF32(beta);
    w.PutU64(shard_rows.size());
    for (const int64_t row : shard_rows) w.PutI64(row);
    w.PutU64(static_cast<uint64_t>(dim));
    const float* base = delta.data();
    for (const int64_t row : shard_rows) {
      w.PutF32Array(base + row * dim, static_cast<size_t>(dim));
    }
    batches.push_back(OneFrame(s, PsOp::kPushRows, w.Take()));
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(batches, &ok_bodies, "ps.PushRowDeltas"));
  for (const std::string& body : ok_bodies) {
    if (!body.empty()) {
      return Status::InvalidArgument("push_rows: unexpected response body");
    }
  }
  return Status::OK();
}

Result<std::vector<Tensor>> NetPsClient::Snapshot() {
  EnterOp();
  obs::ContextSpan op_span("ps.op:snapshot", "ps.client");
  std::vector<Tensor> out;
  out.reserve(shapes_.size());
  for (const Shape& shape : shapes_) out.emplace_back(shape);
  // Dense tensors come from their owning shards; every embedding row comes
  // from the shard the ring assigns it to, so the assembled snapshot covers
  // the full layout. A shard's batch is its dense pull plus one row pull
  // per embedding table, and all batches ride one fan-out: every shard's
  // frames go out before any response is read.
  const size_t num_shards = static_cast<size_t>(config_.num_shards);
  std::vector<ShardBatch> by_shard(num_shards);
  // Parallel to by_shard[s].requests: the table each request covers (< 0
  // marks the dense pull) and the rows it asked for.
  std::vector<std::vector<std::pair<int64_t, std::vector<int64_t>>>> parts(
      num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    by_shard[s].shard = static_cast<int>(s);
    if (dense_by_shard_[s].empty()) continue;
    by_shard[s].requests.push_back(
        {PsOp::kPullParams, PullParamsBody(dense_by_shard_[s])});
    parts[s].emplace_back(-1, std::vector<int64_t>());
  }
  for (size_t i = 0; i < shapes_.size(); ++i) {
    if (!is_embedding_[i] || shapes_[i][1] <= 0) continue;
    const int64_t idx = static_cast<int64_t>(i);
    std::vector<std::vector<int64_t>> rows =
        GroupRowsByShard(idx, AllRows(shapes_[i][0]));
    for (size_t s = 0; s < num_shards; ++s) {
      if (rows[s].empty()) continue;
      by_shard[s].requests.push_back(
          {PsOp::kPullRows, PullRowsBody(idx, rows[s])});
      parts[s].emplace_back(idx, std::move(rows[s]));
    }
  }
  const std::vector<ShardBatch> batches = DropEmpty(std::move(by_shard));
  std::vector<std::string> bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(batches, &bodies, "ps.Snapshot"));
  size_t k = 0;
  for (const ShardBatch& batch : batches) {
    const size_t s = static_cast<size_t>(batch.shard);
    for (const auto& [table, rows] : parts[s]) {
      const std::string& body = bodies[k++];
      if (table < 0) {
        MAMDR_RETURN_IF_ERROR(
            DecodePullParamsBody(body, dense_by_shard_[s], &out));
      } else {
        MAMDR_RETURN_IF_ERROR(DecodePullRowsBody(
            body, table, rows, &out[static_cast<size_t>(table)]));
      }
    }
  }
  return out;
}

Status NetPsClient::Restore(const std::vector<Tensor>& params) {
  EnterOp();
  obs::ContextSpan op_span("ps.op:restore", "ps.client");
  if (params.size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: restore has " + std::to_string(params.size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    MAMDR_RETURN_IF_ERROR(
        CheckTableShape(static_cast<int64_t>(i), params[i], "restore entry"));
  }
  // Snapshot's batching in reverse: each shard's dense restore plus one
  // row restore per embedding table, all shards in one fan-out.
  const size_t num_shards = static_cast<size_t>(config_.num_shards);
  std::vector<ShardBatch> by_shard(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    by_shard[s].shard = static_cast<int>(s);
    const std::vector<uint32_t>& idxs = dense_by_shard_[s];
    if (idxs.empty()) continue;
    PayloadWriter w;
    w.PutU32(static_cast<uint32_t>(idxs.size()));
    for (const uint32_t idx : idxs) {
      w.PutU32(idx);
      w.PutU64(static_cast<uint64_t>(params[idx].size()));
      w.PutF32Array(params[idx].data(),
                    static_cast<size_t>(params[idx].size()));
    }
    by_shard[s].requests.push_back({PsOp::kRestoreParams, w.Take()});
  }
  for (size_t i = 0; i < shapes_.size(); ++i) {
    if (!is_embedding_[i] || shapes_[i][1] <= 0) continue;
    const int64_t dim = shapes_[i][1];
    const int64_t idx = static_cast<int64_t>(i);
    const std::vector<std::vector<int64_t>> rows =
        GroupRowsByShard(idx, AllRows(shapes_[i][0]));
    for (size_t s = 0; s < num_shards; ++s) {
      if (rows[s].empty()) continue;
      PayloadWriter w;
      w.PutU32(static_cast<uint32_t>(idx));
      w.PutU64(rows[s].size());
      for (const int64_t row : rows[s]) w.PutI64(row);
      w.PutU64(static_cast<uint64_t>(dim));
      const float* base = params[i].data();
      for (const int64_t row : rows[s]) {
        w.PutF32Array(base + row * dim, static_cast<size_t>(dim));
      }
      by_shard[s].requests.push_back({PsOp::kRestoreRows, w.Take()});
    }
  }
  std::vector<std::string> bodies;
  MAMDR_RETURN_IF_ERROR(
      FanoutCall(DropEmpty(std::move(by_shard)), &bodies, "ps.Restore"));
  for (const std::string& body : bodies) {
    if (!body.empty()) {
      return Status::InvalidArgument("restore: unexpected response body");
    }
  }
  return Status::OK();
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

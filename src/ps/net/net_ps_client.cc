#include "ps/net/net_ps_client.h"

#include <algorithm>
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

const char* OpName(PsOp op) {
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

constexpr uint8_t kMaxOpByte = static_cast<uint8_t>(PsOp::kRestoreRows);

// Span names follow "<component>:<op>" (docs/ARCHITECTURE.md
// "Observability"): the name pins what the span measures, tags carry the
// per-instance detail (shard, attempt).
std::string SpanName(const char* component, PsOp op) {
  return std::string(component) + ":" + OpName(op);
}

}  // namespace

NetPsClient::NetPsClient(NetPsClientConfig config, ShardDirectory* directory,
                         const std::vector<Tensor>& layout,
                         std::vector<bool> is_embedding)
    : config_(config),
      ring_(config.num_shards, config.vnodes_per_shard, config.ring_seed),
      directory_(directory),
      is_embedding_(std::move(is_embedding)),
      pool_(config.num_shards) {
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
  rpc_us_by_op_.resize(kMaxOpByte + 1, nullptr);
  for (uint8_t b = 1; b <= kMaxOpByte; ++b) {
    rpc_us_by_op_[b] = obs::Registry::Global().histogram(
        std::string("ps.net.client.rpc_us{op=\"") +
            OpName(static_cast<PsOp>(b)) + "\"}",
        obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
        obs::Stability::kRuntime);
  }
  deadline_cut_counter_ = obs::Registry::Global().counter(
      "ps.net.client.deadline_cuts", obs::Stability::kRuntime);
  redial_counter_ = obs::Registry::Global().counter(
      "ps.net.client.redials", obs::Stability::kRuntime);
  fanout_serial_counter_ = obs::Registry::Global().counter(
      "ps.net.client.fanout_serial_fallbacks", obs::Stability::kRuntime);

  if (config_.rpc_deadline_us > 0) {
    wd_thread_ = std::thread([this] { WatchdogLoop(); });
  }
}

NetPsClient::~NetPsClient() {
  {
    MutexLock lock(&wd_mu_);
    wd_stop_ = true;
    wd_cv_.NotifyAll();
  }
  if (wd_thread_.joinable()) wd_thread_.join();
}

uint64_t NetPsClient::deadline_cuts() const {
  MutexLock lock(&wd_mu_);
  return wd_cuts_;
}

void NetPsClient::EnterOp() {
  // Every op can block on the network; holding any lock across that is the
  // pattern lockdep exists to catch.
  lockdep::AssertNoLocksHeld("ps.net.client.op");
  if (op_hook_) op_hook_();
}

// --- Watchdog --------------------------------------------------------------

void NetPsClient::WatchdogLoop() {
  MutexLock lock(&wd_mu_);
  while (!wd_stop_) {
    if (!wd_active_) {
      wd_cv_.Wait(&wd_mu_);
      continue;
    }
    const uint64_t gen = wd_generation_;
    // Armed: run down the attempt budget. A notification (disarm, stop, or
    // a spurious wakeup) re-checks state; a spurious wakeup restarts the
    // full budget, which only ever extends the deadline of an attempt that
    // is still in flight.
    if (wd_cv_.WaitFor(&wd_mu_, config_.rpc_deadline_us)) continue;
    if (wd_active_ && wd_generation_ == gen) {
      // Deadline blown: cut the connection. The op thread's recv/send
      // fails with the torn-connection kUnavailable and the retry layer
      // takes over. shutdown(2) does not block, so calling it under wd_mu_
      // is safe.
      for (const int fd : wd_fds_) cnet::ShutdownFd(fd);
      wd_fired_ = true;
      ++wd_cuts_;
      deadline_cut_counter_->Add();
      while (wd_active_ && wd_generation_ == gen && !wd_stop_) {
        wd_cv_.Wait(&wd_mu_);
      }
    }
  }
}

void NetPsClient::ArmWatchdog(int fd) { ArmWatchdog(std::vector<int>{fd}); }

void NetPsClient::ArmWatchdog(std::vector<int> fds) {
  if (config_.rpc_deadline_us <= 0) return;
  MutexLock lock(&wd_mu_);
  // One in-flight attempt per client: the watchdog tracks one fd set.
  MAMDR_CHECK(!wd_active_);
  wd_fds_ = std::move(fds);
  wd_fired_ = false;
  wd_active_ = true;
  ++wd_generation_;
  wd_cv_.NotifyAll();
}

bool NetPsClient::DisarmWatchdog() {
  if (config_.rpc_deadline_us <= 0) return false;
  MutexLock lock(&wd_mu_);
  wd_active_ = false;
  wd_fds_.clear();
  ++wd_generation_;
  const bool fired = wd_fired_;
  wd_fired_ = false;
  wd_cv_.NotifyAll();
  return fired;
}

// --- Transport -------------------------------------------------------------

Status NetPsClient::AttemptOnFd(int fd,
                                const std::vector<const std::string*>& requests,
                                std::vector<std::string>* responses,
                                bool* cut) {
  ArmWatchdog(fd);
  // Pipelined: every request frame goes out before any response is read,
  // so a batch costs one round trip instead of one per frame.
  Status st = Status::OK();
  for (const std::string* request : requests) {
    st = cnet::WriteFrame(fd, *request);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    responses->clear();
    responses->reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      Result<std::string> r = cnet::ReadFrame(fd, config_.max_frame_bytes);
      if (!r.ok()) {
        st = r.status();
        break;
      }
      responses->push_back(std::move(r).value());
    }
  }
  *cut = DisarmWatchdog();
  return st;
}

Result<std::vector<std::string>> NetPsClient::CallFramesOnce(
    int shard, const std::vector<const std::string*>& requests,
    obs::Histogram* rpc_us) {
  const int64_t start_us = obs::MonotonicMicros();
  const int port = directory_->GetPort(shard);
  if (port == 0) {
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " is down");
  }

  Result<ConnectionPool::Lease> acquired = [&] {
    obs::ContextSpan acquire_span(std::string("ps.client.pool.acquire"),
                                  "ps.client");
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
  ConnectionPool::Lease lease = std::move(acquired).value();
  const bool was_reused = lease.reused;
  std::vector<std::string> responses;
  bool cut = false;
  Status st = AttemptOnFd(lease.fd.get(), requests, &responses, &cut);
  pool_.Release(std::move(lease), /*healthy=*/st.ok());
  if (!st.ok() && was_reused && !cut) {
    // A reused connection that fails on first use may simply have gone
    // stale in the cache (server idle-close whose FIN raced the probe).
    // Redial fresh and re-run the attempt once WITHOUT charging the
    // retry budget: both outcomes of that race then consume identical
    // retry schedules, which keeps same-seed chaos runs bit-identical.
    // Like any transport retry, this can double-apply a push whose
    // response was lost — the bounded loss class ARCHITECTURE.md
    // documents for retried pushes. A watchdog cut is excluded: the
    // deadline already spent this attempt's time budget.
    redial_counter_->Add();
    obs::ContextSpan redial_span(std::string("ps.client.redial"), "ps.client");
    redial_span.AddTag("shard", std::to_string(shard));
    Result<ConnectionPool::Lease> fresh =
        pool_.Acquire(shard, directory_->GetPort(shard));
    if (!fresh.ok()) {
      st = fresh.status();
    } else {
      ConnectionPool::Lease retry_lease = std::move(fresh).value();
      st = AttemptOnFd(retry_lease.fd.get(), requests, &responses, &cut);
      pool_.Release(std::move(retry_lease), /*healthy=*/st.ok());
    }
    if (!st.ok()) redial_span.SetError(st.message());
  }

  if (rpc_us != nullptr) {
    rpc_us->Observe(static_cast<double>(obs::MonotonicMicros() - start_us));
  }
  if (!st.ok() && cut) {
    // The failure was manufactured by our own deadline, not the peer; say
    // so, and stay kUnavailable so the retry layer re-attempts.
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " rpc deadline exceeded (connection cut)");
  }
  if (!st.ok() && st.code() == StatusCode::kInvalidArgument) {
    // A response frame that fails CRC/framing was damaged in transit, so
    // map it to the retryable code. The request may already have applied —
    // a retried push can then double-apply, the same bounded loss class as
    // a dropped push (see ARCHITECTURE.md). A *remote* kInvalidArgument
    // decoded from a valid frame is a real rejection and passes through
    // Call() untouched.
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " response frame damaged: " + st.message());
  }
  if (!st.ok()) return st;
  return responses;
}

Result<std::string> NetPsClient::CallOnce(int shard,
                                          const std::string& request,
                                          obs::Histogram* rpc_us) {
  MAMDR_ASSIGN_OR_RETURN(std::vector<std::string> responses,
                         CallFramesOnce(shard, {&request}, rpc_us));
  return std::move(responses[0]);
}

Result<std::string> NetPsClient::Call(int shard, PsOp op, std::string body,
                                      const char* what) {
  obs::ContextSpan rpc_span(SpanName("ps.client.rpc", op), "ps.client");
  rpc_span.AddTag("shard", std::to_string(shard));
  obs::Histogram* rpc_us = rpc_us_by_op_[static_cast<uint8_t>(op)];

  // Untraced attempts reuse one prebuilt frame; traced attempts each open
  // their own span and re-frame so the context on the wire names the
  // attempt that actually reached the shard.
  std::string untraced_frame;
  int attempt = 0;
  std::string ok_body;
  const Status st = retry_[static_cast<size_t>(shard)]->Run(
      [&]() -> Status {
        obs::ContextSpan attempt_span(SpanName("ps.client.attempt", op),
                                      "ps.client");
        attempt_span.AddTag("shard", std::to_string(shard));
        attempt_span.AddTag("attempt", std::to_string(attempt++));
        std::string traced_frame;
        const std::string* frame = &untraced_frame;
        if (attempt_span.active()) {
          PayloadWriter w;
          const obs::TraceContext ctx = attempt_span.context();
          BeginRequest(&w, op, ctx.trace_id, ctx.span_id);
          traced_frame = w.Take() + body;
          frame = &traced_frame;
        } else if (untraced_frame.empty()) {
          PayloadWriter w;
          BeginRequest(&w, op, 0, 0);
          untraced_frame = w.Take() + body;
        }
        const Status attempt_st = [&]() -> Status {
          Result<std::string> framed = CallOnce(shard, *frame, rpc_us);
          MAMDR_RETURN_IF_ERROR(framed.status());
          PayloadReader r(framed.value());
          // The response header carries the remote Status; a remote
          // kUnavailable (e.g. mid-failover) stays retryable here.
          MAMDR_RETURN_IF_ERROR(DecodeResponseHeader(&r));
          ok_body = framed.value().substr(framed.value().size() -
                                          r.remaining());
          return Status::OK();
        }();
        if (!attempt_st.ok()) attempt_span.SetError(attempt_st.message());
        return attempt_st;
      },
      what);
  if (!st.ok()) {
    rpc_span.SetError(st.message());
    return st;
  }
  return ok_body;
}

Status NetPsClient::CallBatch(int shard,
                              const std::vector<ShardRequest>& requests,
                              std::vector<std::string>* ok_bodies,
                              const char* what) {
  if (requests.empty()) {
    ok_bodies->clear();
    return Status::OK();
  }
  obs::ContextSpan batch_span(SpanName("ps.client.batch", requests[0].op),
                              "ps.client");
  batch_span.AddTag("shard", std::to_string(shard));
  batch_span.AddTag("frames", std::to_string(requests.size()));
  // Every frame of a traced attempt carries the attempt span's context, so
  // all of the batch's server handler spans link to one client span.
  const auto build_frames = [&requests](uint64_t trace_id, uint64_t span_id) {
    std::vector<std::string> out;
    out.reserve(requests.size());
    for (const ShardRequest& req : requests) {
      PayloadWriter w;
      BeginRequest(&w, req.op, trace_id, span_id);
      out.push_back(w.Take() + req.body);
    }
    return out;
  };
  std::vector<std::string> framed;  // untraced attempts reuse these
  // The batch's latency lands in the first op's histogram: a pipelined
  // batch is one wire round trip, and splitting it per op would count the
  // same elapsed time N times.
  obs::Histogram* rpc_us =
      rpc_us_by_op_[static_cast<uint8_t>(requests[0].op)];

  int attempt = 0;
  const Status st = retry_[static_cast<size_t>(shard)]->Run(
      [&]() -> Status {
        obs::ContextSpan attempt_span(
            SpanName("ps.client.attempt", requests[0].op), "ps.client");
        attempt_span.AddTag("shard", std::to_string(shard));
        attempt_span.AddTag("attempt", std::to_string(attempt++));
        std::vector<std::string> traced;
        const std::vector<std::string>* frames = &framed;
        if (attempt_span.active()) {
          const obs::TraceContext ctx = attempt_span.context();
          traced = build_frames(ctx.trace_id, ctx.span_id);
          frames = &traced;
        } else if (framed.empty()) {
          framed = build_frames(0, 0);
        }
        std::vector<const std::string*> frame_ptrs;
        frame_ptrs.reserve(frames->size());
        for (const std::string& f : *frames) frame_ptrs.push_back(&f);
        const Status attempt_st = [&]() -> Status {
          Result<std::vector<std::string>> responses =
              CallFramesOnce(shard, frame_ptrs, rpc_us);
          MAMDR_RETURN_IF_ERROR(responses.status());
          ok_bodies->clear();
          ok_bodies->reserve(responses.value().size());
          for (const std::string& resp : responses.value()) {
            PayloadReader r(resp);
            // Any non-OK response fails (and retries) the whole batch; a
            // remote kUnavailable mid-failover stays retryable.
            MAMDR_RETURN_IF_ERROR(DecodeResponseHeader(&r));
            ok_bodies->push_back(resp.substr(resp.size() - r.remaining()));
          }
          return Status::OK();
        }();
        if (!attempt_st.ok()) attempt_span.SetError(attempt_st.message());
        return attempt_st;
      },
      what);
  if (!st.ok()) batch_span.SetError(st.message());
  return st;
}

Status NetPsClient::FanoutCall(const std::vector<int>& shards, PsOp op,
                               std::vector<std::string> bodies,
                               std::vector<std::string>* ok_bodies,
                               const char* what) {
  MAMDR_CHECK_EQ(shards.size(), bodies.size());
  const size_t n = shards.size();
  obs::ContextSpan fanout_span(SpanName("ps.client.fanout", op), "ps.client");
  fanout_span.AddTag("shards", std::to_string(n));
  ok_bodies->assign(n, std::string());
  std::vector<bool> done(n, false);
  if (n > 1) {
    const int64_t start_us = obs::MonotonicMicros();
    // One child span per target shard; each shard's request frame carries
    // its child's context, so the server handler span for shard i links
    // under exactly one of these.
    std::vector<std::unique_ptr<obs::ContextSpan>> shard_spans(n);
    std::vector<std::string> framed(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t trace_id = 0;
      uint64_t parent_span_id = 0;
      if (fanout_span.active()) {
        shard_spans[i] = std::make_unique<obs::ContextSpan>(
            SpanName("ps.client.shard", op), "ps.client",
            fanout_span.context());
        shard_spans[i]->AddTag("shard", std::to_string(shards[i]));
        const obs::TraceContext ctx = shard_spans[i]->context();
        trace_id = ctx.trace_id;
        parent_span_id = ctx.span_id;
      }
      PayloadWriter w;
      BeginRequest(&w, op, trace_id, parent_span_id);
      framed[i] = w.Take() + bodies[i];
    }
    // One pooled connection per target, acquired in shard order. A shard
    // that is down or refuses the dial stays on the serial path below.
    struct InFlight {
      size_t i;
      ConnectionPool::Lease lease;
      bool sent = false;
      bool clean = false;  // response frame arrived undamaged
    };
    std::vector<InFlight> inflight;
    inflight.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const int port = directory_->GetPort(shards[i]);
      if (port == 0) continue;
      Result<ConnectionPool::Lease> acquired = pool_.Acquire(shards[i], port);
      if (!acquired.ok()) continue;
      inflight.push_back({i, std::move(acquired).value()});
    }
    // One watchdog budget covers the whole pipelined attempt; on expiry
    // every in-flight connection is cut and the affected shards retry
    // serially, each under its own budget.
    std::vector<int> fds;
    fds.reserve(inflight.size());
    for (const InFlight& f : inflight) fds.push_back(f.lease.fd.get());
    ArmWatchdog(std::move(fds));
    // Write phase: every shard's request goes out before any response is
    // read, so the fan-out costs one round trip instead of one per shard.
    for (InFlight& f : inflight) {
      f.sent = cnet::WriteFrame(f.lease.fd.get(), framed[f.i]).ok();
    }
    // Read phase, same order. A valid frame whose remote status is non-OK
    // leaves the connection healthy (the exchange completed) but sends the
    // shard to the serial path, which owns retryability and error mapping.
    for (InFlight& f : inflight) {
      if (!f.sent) continue;
      Result<std::string> resp =
          cnet::ReadFrame(f.lease.fd.get(), config_.max_frame_bytes);
      if (!resp.ok()) continue;
      f.clean = true;
      PayloadReader r(resp.value());
      if (!DecodeResponseHeader(&r).ok()) continue;
      (*ok_bodies)[f.i] =
          resp.value().substr(resp.value().size() - r.remaining());
      done[f.i] = true;
    }
    DisarmWatchdog();
    for (InFlight& f : inflight) {
      pool_.Release(std::move(f.lease), /*healthy=*/f.sent && f.clean);
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
    // Close the per-shard children before any serial retry opens its own
    // rpc/attempt spans, so fallback work is not nested under a child that
    // already failed.
    shard_spans.clear();
  }
  // Serial pass: whatever the pipelined phase did not finish — a single target,
  // or a shard whose exchange failed. Call() owns the retry budget,
  // stale-redial, and error mapping, so fallback failure semantics are exactly
  // the single-shard path's. A shard that answered with a remote error is
  // re-asked once here; PS ops are idempotent under validation errors and a
  // retried push is the same bounded loss class as any transport retry.
  for (size_t i = 0; i < n; ++i) {
    if (done[i]) continue;
    MAMDR_ASSIGN_OR_RETURN((*ok_bodies)[i],
                           Call(shards[i], op, std::move(bodies[i]), what));
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
  obs::ContextSpan op_span(std::string("ps.op:ping"), "ps.client");
  if (shard < 0 || shard >= config_.num_shards) {
    return Status::InvalidArgument("ping: bad shard " +
                                   std::to_string(shard));
  }
  MAMDR_ASSIGN_OR_RETURN(const std::string body,
                         Call(shard, PsOp::kPing, std::string(), "ps.Ping"));
  if (!body.empty()) {
    return Status::InvalidArgument("ping: unexpected response body");
  }
  return Status::OK();
}

Status NetPsClient::PullDense(std::vector<Tensor>* out) {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:pull_dense"), "ps.client");
  return PullDenseFanout(out);
}

Status NetPsClient::PullDenseFanout(std::vector<Tensor>* out) {
  if (out->size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: pull destination has " + std::to_string(out->size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  std::vector<int> shards;
  std::vector<std::string> bodies;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::vector<uint32_t>& idxs = dense_by_shard_[static_cast<size_t>(s)];
    if (idxs.empty()) continue;
    for (const uint32_t idx : idxs) {
      MAMDR_RETURN_IF_ERROR(
          CheckTableShape(idx, (*out)[idx], "pull destination"));
    }
    PayloadWriter w;
    w.PutU32(static_cast<uint32_t>(idxs.size()));
    for (const uint32_t idx : idxs) w.PutU32(idx);
    shards.push_back(s);
    bodies.push_back(w.Take());
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(shards, PsOp::kPullParams,
                                   std::move(bodies), &ok_bodies,
                                   "ps.PullDense"));
  for (size_t k = 0; k < shards.size(); ++k) {
    MAMDR_RETURN_IF_ERROR(DecodePullParamsBody(
        ok_bodies[k], dense_by_shard_[static_cast<size_t>(shards[k])], out));
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
  std::vector<int> shards;
  std::vector<std::string> bodies;
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::vector<int64_t>& shard_rows =
        by_shard[static_cast<size_t>(s)];
    if (shard_rows.empty()) continue;
    PayloadWriter w;
    w.PutU32(static_cast<uint32_t>(idx));
    w.PutU64(shard_rows.size());
    for (const int64_t row : shard_rows) w.PutI64(row);
    shards.push_back(s);
    bodies.push_back(w.Take());
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(
      FanoutCall(shards, PsOp::kPullRows, std::move(bodies), &ok_bodies, what));
  for (size_t k = 0; k < shards.size(); ++k) {
    MAMDR_RETURN_IF_ERROR(DecodePullRowsBody(
        ok_bodies[k], idx, by_shard[static_cast<size_t>(shards[k])], into));
  }
  return Status::OK();
}

Status NetPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                             Tensor* into) {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:pull_rows"), "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckRows(idx, rows));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, *into, "pull destination"));
  return PullRowsFanout(idx, rows, into, "ps.PullRows");
}

Status NetPsClient::PullFullTable(int64_t idx, Tensor* into) {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:pull_full_table"), "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, *into, "pull destination"));
  const int64_t n = shapes_[static_cast<size_t>(idx)][0];
  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) rows[static_cast<size_t>(r)] = r;
  return PullRowsFanout(idx, rows, into, "ps.PullFullTable");
}

Status NetPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                   float beta) {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:push_dense_delta"), "ps.client");
  if (delta.size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: dense delta has " + std::to_string(delta.size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  std::vector<int> shards;
  std::vector<std::string> bodies;
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
    shards.push_back(s);
    bodies.push_back(w.Take());
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(shards, PsOp::kPushParams,
                                   std::move(bodies), &ok_bodies,
                                   "ps.PushDenseDelta"));
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
  obs::ContextSpan op_span(std::string("ps.op:push_row_deltas"), "ps.client");
  MAMDR_RETURN_IF_ERROR(CheckIndex(idx, /*want_embedding=*/true));
  MAMDR_RETURN_IF_ERROR(CheckRows(idx, rows));
  MAMDR_RETURN_IF_ERROR(CheckTableShape(idx, delta, "push delta"));
  const int64_t dim = shapes_[static_cast<size_t>(idx)][1];
  if (dim <= 0) return Status::OK();
  const std::vector<std::vector<int64_t>> by_shard =
      GroupRowsByShard(idx, rows);
  std::vector<int> shards;
  std::vector<std::string> bodies;
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
    shards.push_back(s);
    bodies.push_back(w.Take());
  }
  std::vector<std::string> ok_bodies;
  MAMDR_RETURN_IF_ERROR(FanoutCall(shards, PsOp::kPushRows, std::move(bodies),
                                   &ok_bodies, "ps.PushRowDeltas"));
  for (const std::string& body : ok_bodies) {
    if (!body.empty()) {
      return Status::InvalidArgument("push_rows: unexpected response body");
    }
  }
  return Status::OK();
}

Result<std::vector<Tensor>> NetPsClient::Snapshot() {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:snapshot"), "ps.client");
  std::vector<Tensor> out;
  out.reserve(shapes_.size());
  for (const Shape& shape : shapes_) out.emplace_back(shape);
  // Dense tensors come from their owning shards; every embedding row comes
  // from the shard the ring assigns it to, so the assembled snapshot covers
  // the full layout. All of one shard's requests — its dense pull plus one
  // row pull per embedding table — go out as a single pipelined batch on
  // one pooled connection, so a snapshot costs one round trip per shard
  // instead of one per (shard, table).
  for (int s = 0; s < config_.num_shards; ++s) {
    std::vector<ShardRequest> requests;
    // Parallel to `requests`: which table each row request covers
    // (< 0 marks the dense request) and the rows it asked for.
    std::vector<int64_t> req_table;
    std::vector<std::vector<int64_t>> req_rows;

    const std::vector<uint32_t>& idxs = dense_by_shard_[static_cast<size_t>(s)];
    if (!idxs.empty()) {
      PayloadWriter w;
      w.PutU32(static_cast<uint32_t>(idxs.size()));
      for (const uint32_t idx : idxs) w.PutU32(idx);
      requests.push_back({PsOp::kPullParams, w.Take()});
      req_table.push_back(-1);
      req_rows.emplace_back();
    }
    for (size_t i = 0; i < shapes_.size(); ++i) {
      if (!is_embedding_[i] || shapes_[i][1] <= 0) continue;
      std::vector<int64_t> shard_rows;
      for (int64_t r = 0; r < shapes_[i][0]; ++r) {
        if (ring_.ShardForRow(static_cast<int64_t>(i), r) == s) {
          shard_rows.push_back(r);
        }
      }
      if (shard_rows.empty()) continue;
      PayloadWriter w;
      w.PutU32(static_cast<uint32_t>(i));
      w.PutU64(shard_rows.size());
      for (const int64_t row : shard_rows) w.PutI64(row);
      requests.push_back({PsOp::kPullRows, w.Take()});
      req_table.push_back(static_cast<int64_t>(i));
      req_rows.push_back(std::move(shard_rows));
    }
    if (requests.empty()) continue;

    std::vector<std::string> bodies;
    MAMDR_RETURN_IF_ERROR(CallBatch(s, requests, &bodies, "ps.Snapshot"));
    MAMDR_CHECK_EQ(bodies.size(), requests.size());
    for (size_t k = 0; k < bodies.size(); ++k) {
      if (req_table[k] < 0) {
        MAMDR_RETURN_IF_ERROR(DecodePullParamsBody(bodies[k], idxs, &out));
      } else {
        MAMDR_RETURN_IF_ERROR(DecodePullRowsBody(
            bodies[k], req_table[k], req_rows[k],
            &out[static_cast<size_t>(req_table[k])]));
      }
    }
  }
  return out;
}

Status NetPsClient::Restore(const std::vector<Tensor>& params) {
  EnterOp();
  obs::ContextSpan op_span(std::string("ps.op:restore"), "ps.client");
  if (params.size() != shapes_.size()) {
    return Status::InvalidArgument(
        "ps client: restore has " + std::to_string(params.size()) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    MAMDR_RETURN_IF_ERROR(
        CheckTableShape(static_cast<int64_t>(i), params[i], "restore entry"));
  }
  // One pipelined batch per shard: its dense restore plus one row restore
  // per embedding table, mirroring Snapshot's batching.
  for (int s = 0; s < config_.num_shards; ++s) {
    std::vector<ShardRequest> requests;
    const std::vector<uint32_t>& idxs = dense_by_shard_[static_cast<size_t>(s)];
    if (!idxs.empty()) {
      PayloadWriter w;
      w.PutU32(static_cast<uint32_t>(idxs.size()));
      for (const uint32_t idx : idxs) {
        w.PutU32(idx);
        w.PutU64(static_cast<uint64_t>(params[idx].size()));
        w.PutF32Array(params[idx].data(),
                      static_cast<size_t>(params[idx].size()));
      }
      requests.push_back({PsOp::kRestoreParams, w.Take()});
    }
    for (size_t i = 0; i < shapes_.size(); ++i) {
      if (!is_embedding_[i]) continue;
      const int64_t dim = shapes_[i][1];
      if (dim <= 0) continue;
      std::vector<int64_t> shard_rows;
      for (int64_t r = 0; r < shapes_[i][0]; ++r) {
        if (ring_.ShardForRow(static_cast<int64_t>(i), r) == s) {
          shard_rows.push_back(r);
        }
      }
      if (shard_rows.empty()) continue;
      PayloadWriter w;
      w.PutU32(static_cast<uint32_t>(i));
      w.PutU64(shard_rows.size());
      for (const int64_t row : shard_rows) w.PutI64(row);
      w.PutU64(static_cast<uint64_t>(dim));
      const float* base = params[i].data();
      for (const int64_t row : shard_rows) {
        w.PutF32Array(base + row * dim, static_cast<size_t>(dim));
      }
      requests.push_back({PsOp::kRestoreRows, w.Take()});
    }
    if (requests.empty()) continue;

    std::vector<std::string> bodies;
    MAMDR_RETURN_IF_ERROR(CallBatch(s, requests, &bodies, "ps.Restore"));
    for (const std::string& body : bodies) {
      if (!body.empty()) {
        return Status::InvalidArgument("restore: unexpected response body");
      }
    }
  }
  return Status::OK();
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

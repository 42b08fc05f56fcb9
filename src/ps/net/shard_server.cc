#include "ps/net/shard_server.h"

#include <algorithm>
#include <utility>

#include "checkpoint/checkpoint.h"
#include "common/check.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"

namespace mamdr {
namespace ps {
namespace net {

namespace cnet = ::mamdr::net;

namespace {

std::string ShardLabel(const char* family, int shard_id) {
  return std::string(family) + "{shard=\"" + std::to_string(shard_id) +
         "\"}";
}

std::string ShardOpLabel(const char* family, int shard_id, const char* op) {
  return std::string(family) + "{shard=\"" + std::to_string(shard_id) +
         "\",op=\"" + op + "\"}";
}

}  // namespace

ShardServer::ShardServer(ShardServerConfig config, std::vector<Tensor> params,
                         std::vector<bool> is_embedding)
    : config_(config),
      ring_(config.num_shards),
      server_(std::move(params), std::move(is_embedding)) {
  MAMDR_CHECK_GE(config_.shard_id, 0);
  MAMDR_CHECK_LT(config_.shard_id, config_.num_shards);
  RegisterMetrics();
}

void ShardServer::RegisterMetrics() {
  obs::Registry& reg = obs::Registry::Global();
  const int id = config_.shard_id;
  up_gauge_ = reg.gauge(ShardLabel("ps.net.shard.up", id),
                        obs::Stability::kRuntime);
  requests_counter_ = reg.counter(ShardLabel("ps.net.shard.requests", id),
                                  obs::Stability::kRuntime);
  bad_requests_counter_ = reg.counter(
      ShardLabel("ps.net.shard.bad_requests", id), obs::Stability::kRuntime);
  sessions_counter_ = reg.counter(ShardLabel("ps.net.shard.sessions", id),
                                  obs::Stability::kRuntime);
  bytes_in_counter_ = reg.counter(ShardLabel("ps.net.shard.bytes_in", id),
                                  obs::Stability::kRuntime);
  bytes_out_counter_ = reg.counter(ShardLabel("ps.net.shard.bytes_out", id),
                                   obs::Stability::kRuntime);
  queue_depth_gauge_ = reg.gauge(ShardLabel("ps.net.shard.queue_depth", id),
                                 obs::Stability::kRuntime);
  active_sessions_gauge_ = reg.gauge(
      ShardLabel("ps.net.shard.active_sessions", id),
      obs::Stability::kRuntime);
  worker_utilization_gauge_ = reg.gauge(
      ShardLabel("ps.net.shard.worker_utilization", id),
      obs::Stability::kRuntime);
  // Queue waits are loopback-scheduler scale; handler latencies reach into
  // injected-latency territory. One canonical exponential ladder covers
  // both (same geometry as the client's rpc_us buckets).
  queue_wait_us_ = reg.histogram(
      ShardLabel("ps.net.shard.queue_wait_us", id),
      obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
      obs::Stability::kRuntime);
  op_us_by_op_.assign(kNumPsOps + 1, nullptr);
  for (uint8_t b = 1; b <= kNumPsOps; ++b) {
    op_us_by_op_[b] = reg.histogram(
        ShardOpLabel("ps.net.shard.op_us", id, PsOpName(static_cast<PsOp>(b))),
        obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
        obs::Stability::kRuntime);
  }
}

void ShardServer::UpdateUtilization(int64_t now_us) {
  const int64_t up_us = now_us - serve_start_us_;
  const int workers = config_.num_workers > 0 ? config_.num_workers : 1;
  if (up_us <= 0) return;
  const double util =
      static_cast<double>(busy_us_.load(std::memory_order_relaxed)) /
      (static_cast<double>(workers) * static_cast<double>(up_us));
  worker_utilization_gauge_->Set(util < 1.0 ? util : 1.0);
}

ShardServer::~ShardServer() { Stop(); }

Status ShardServer::Start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("shard server already running");
  }
  MAMDR_RETURN_IF_ERROR(listener_.Bind(port));
  if (config_.metrics_port >= 0) {
    // Per-shard Prometheus endpoint. The registry is process-global; this
    // shard's series are the `{shard="id"}`-labelled ones.
    auto server = std::make_unique<serve::MetricsServer>();
    const Status st = server->Start(config_.metrics_port);
    if (!st.ok()) {
      listener_.Close();
      return st;
    }
    metrics_server_ = std::move(server);
  }
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  serve_start_us_ = obs::MonotonicMicros();
  busy_us_.store(0, std::memory_order_relaxed);
  if (!config_.trace_path.empty()) {
    recorder_.SetProcess(1000 + config_.shard_id,
                         "shard-" + std::to_string(config_.shard_id));
    recorder_.Start();
  }
  up_gauge_->Set(1.0);
  const int num_workers = config_.num_workers > 0 ? config_.num_workers : 1;
  {
    MutexLock lock(&sessions_mu_);
    workers_stop_ = false;
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void ShardServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Event-driven shutdown: the self-pipe pops the poller out of its
  // indefinite Poll immediately — no poll period, no accept timeout.
  listener_.Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  {
    MutexLock lock(&sessions_mu_);
    workers_stop_ = true;
    // Cut every open session, idle or busy, so a worker blocked mid-frame
    // returns now instead of waiting out a read deadline; the clients see
    // a torn connection and retry against the respawned shard.
    for (const auto& [fd, owned] : sessions_) cnet::ShutdownFd(fd);
    ready_.clear();
    ready_cv_.NotifyAll();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    MutexLock lock(&sessions_mu_);
    sessions_.clear();
    returned_.clear();
    active_sessions_gauge_->Set(0.0);
    queue_depth_gauge_->Set(0.0);
  }
  listener_.Close();
  port_ = 0;
  running_.store(false, std::memory_order_release);
  if (metrics_server_ != nullptr) {
    metrics_server_->Stop();
    metrics_server_.reset();
  }
  if (!config_.trace_path.empty()) {
    // One Chrome-trace file per logical shard process — the input contract
    // of tools/mamdr_tracemerge.py. A write failure must not turn a clean
    // shutdown into a crash; the trace is a debugging artifact.
    recorder_.Stop();
    std::string error;
    (void)obs::WriteFile(config_.trace_path, recorder_.Json() + "\n",
                         &error);
  }
  up_gauge_->Set(0.0);
}

void ShardServer::PollLoop() {
  std::vector<int> idle;  // the poll set; only this thread touches it
  std::vector<int> ready;
  for (;;) {
    ready.clear();
    const Result<int> accepted =
        listener_.Poll(/*timeout_ms=*/-1, idle, &ready);
    if (stopping_.load(std::memory_order_acquire)) {
      if (accepted.ok() && accepted.value() >= 0) {
        cnet::ScopedFd drop(accepted.value());
      }
      return;
    }
    if (!accepted.ok()) return;  // listener broken; Stop() still joins
    cnet::ScopedFd fd(accepted.value());
    // Arm the kernel read deadline before any worker touches the fd: a
    // peer that stalls mid-frame costs one worker at most the deadline.
    if (fd.valid() && config_.read_deadline_us > 0) {
      (void)cnet::SetIoTimeout(fd.get(), config_.read_deadline_us);
    }
    for (const int r : ready) {
      idle.erase(std::find(idle.begin(), idle.end(), r));
    }
    const int64_t now_us = obs::MonotonicMicros();
    MutexLock lock(&sessions_mu_);
    idle.insert(idle.end(), returned_.begin(), returned_.end());
    returned_.clear();
    for (const int r : ready) {
      ready_.push_back({r, now_us});
      ready_cv_.NotifyOne();
    }
    queue_depth_gauge_->Set(static_cast<double>(ready_.size()));
    if (fd.valid()) {
      idle.push_back(fd.get());
      sessions_.emplace(fd.get(), std::move(fd));
      sessions_counter_->Add();
      active_sessions_gauge_->Set(static_cast<double>(sessions_.size()));
    }
  }
}

void ShardServer::WorkerLoop() {
  for (;;) {
    ReadySession session;
    {
      MutexLock lock(&sessions_mu_);
      while (ready_.empty() && !workers_stop_) ready_cv_.Wait(&sessions_mu_);
      if (workers_stop_) return;
      session = ready_.front();
      ready_.pop_front();
      queue_depth_gauge_->Set(static_cast<double>(ready_.size()));
    }
    const int64_t pickup_us = obs::MonotonicMicros();
    queue_wait_us_->Observe(static_cast<double>(pickup_us - session.ready_us));
    if (recorder_.enabled()) {
      // The wait predates reading the request frame, so it carries no trace
      // context — it renders as a free-standing span on the shard's row.
      obs::TraceEvent e;
      e.name = "ps.shard.queue_wait";
      e.category = "ps.shard";
      e.ts_us = session.ready_us;
      e.dur_us = pickup_us - session.ready_us;
      recorder_.Record(std::move(e));
    }
    const bool idle = ServeReadyFrames(session.fd);
    const int64_t done_us = obs::MonotonicMicros();
    busy_us_.fetch_add(done_us - pickup_us, std::memory_order_relaxed);
    UpdateUtilization(done_us);
    {
      MutexLock lock(&sessions_mu_);
      if (idle) {
        returned_.push_back(session.fd);
      } else {
        // Close under the lock, so Stop() can never cut a recycled fd
        // number (see the header comment on sessions_mu_).
        sessions_.erase(session.fd);
        active_sessions_gauge_->Set(static_cast<double>(sessions_.size()));
      }
    }
    if (idle) listener_.Wake();
  }
}

bool ShardServer::ServeReadyFrames(int fd) {
  do {
    bool clean_close = false;
    Result<std::string> request =
        cnet::ReadFrame(fd, kMaxFrameBytes, &clean_close);
    if (!request.ok()) {
      // A peer hanging up between frames is the normal end of a pooled
      // connection's session — not damage. Anything else (mid-frame cut,
      // read deadline, CRC/framing corruption) mangled bytes in transit,
      // so count it and close without answering: the client sees a torn
      // connection (kUnavailable) and its retry re-sends the intact
      // request on a fresh connection. Only a *decodable* frame carrying
      // a bad message earns a kInvalidArgument response (HandleRequest).
      if (!clean_close) {
        bad_requests_counter_->Add();
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    bytes_in_counter_->Add(request.value().size());
    const std::string response = HandleRequest(request.value());
    bytes_out_counter_->Add(response.size());
    if (!cnet::WriteFrame(fd, response).ok()) return false;
    // Keep serving while bytes (a pipelined frame, or the peer's EOF) are
    // already pending; otherwise the session goes back to the poller. The
    // probe never blocks, so no worker ever waits on an idle fd.
  } while (!cnet::ProbeConnAlive(fd));
  return true;
}

std::string ShardServer::HandleRequest(const std::string& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_counter_->Add();
  const int64_t start_us = obs::MonotonicMicros();

  PayloadReader r(request);
  RequestEnvelope env;
  const Status env_st = DecodeRequestEnvelope(&r, &env);

  // The handler span parents under the client span whose context rode the
  // frame (same trace_id end to end); an untraced or undecodable frame
  // opens a fresh root so the work is still visible on the shard's row.
  // The ambient installation lets the decode/apply/encode sub-spans the
  // handlers open attach underneath automatically.
  const PsOp op = static_cast<PsOp>(env.op);
  obs::ContextSpan handle_span(
      PsSpanName(PsSpan::kShardHandle, op), "ps.shard",
      obs::TraceContext{env.trace_id, env.parent_span_id}, &recorder_);
  handle_span.AddTag("shard", std::to_string(config_.shard_id));
  obs::ScopedTraceContext ambient(handle_span.context());

  Result<std::string> body = [&]() -> Result<std::string> {
    MAMDR_RETURN_IF_ERROR(env_st);
    switch (op) {
      case PsOp::kPing:
        MAMDR_RETURN_IF_ERROR(r.ExpectEnd());
        return std::string();
      case PsOp::kPullParams:
        return HandlePullParams(&r);
      case PsOp::kPushParams:
        return HandlePushParams(&r, PsWrite::kEq3);
      case PsOp::kPullRows:
        return HandlePullRows(&r);
      case PsOp::kPushRows:
        return HandlePushRows(&r, PsWrite::kEq3);
      case PsOp::kRestoreParams:
        return HandlePushParams(&r, PsWrite::kRestore);
      case PsOp::kRestoreRows:
        return HandlePushRows(&r, PsWrite::kRestore);
    }
    return Status::InvalidArgument("ps wire: unknown op " +
                                   std::to_string(env.op));
  }();

  std::string response;
  if (!body.ok()) {
    bad_requests_counter_->Add();
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    handle_span.SetError(body.status().message());
    response = EncodeErrorResponse(body.status());
  } else {
    obs::ContextSpan encode_span("ps.shard.encode", "ps.shard", &recorder_);
    PayloadWriter w;
    BeginOkResponse(&w);
    response = w.Take() + body.value();
  }
  if (env.op >= 1 && env.op <= kNumPsOps) {
    op_us_by_op_[env.op]->Observe(
        static_cast<double>(obs::MonotonicMicros() - start_us));
  }
  return response;
}

Status ShardServer::CheckParamIndex(uint32_t idx, bool want_embedding) const {
  const PsLayout& layout = server_.layout();
  if (idx >= static_cast<uint64_t>(layout.num_params())) {
    return Status::InvalidArgument("shard " +
                                   std::to_string(config_.shard_id) +
                                   ": param index " + std::to_string(idx) +
                                   " out of range");
  }
  if (layout.is_embedding(idx) != want_embedding) {
    return Status::InvalidArgument(
        "shard " + std::to_string(config_.shard_id) + ": param " +
        std::to_string(idx) +
        (want_embedding ? " is not an embedding table"
                        : " is an embedding table"));
  }
  if (!want_embedding &&
      ring_.ShardForDense(static_cast<int64_t>(idx)) != config_.shard_id) {
    return Status::InvalidArgument(
        "shard " + std::to_string(config_.shard_id) + ": not the owner of "
        "dense param " + std::to_string(idx));
  }
  return Status::OK();
}

Result<std::string> ShardServer::HandlePullParams(PayloadReader* r) {
  // decode/apply sub-spans parent under the ambient handle span installed
  // by HandleRequest (same pattern in every handler below).
  const PsLayout& layout = server_.layout();
  std::vector<int64_t> idxs;
  {
    obs::ContextSpan decode_span("ps.shard.decode", "ps.shard", &recorder_);
    uint32_t n = 0;
    MAMDR_RETURN_IF_ERROR(r->GetU32(&n));
    if (n > static_cast<uint64_t>(layout.num_params())) {
      return Status::InvalidArgument("pull_params: count " +
                                     std::to_string(n) +
                                     " exceeds layout size");
    }
    idxs.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t idx = 0;
      MAMDR_RETURN_IF_ERROR(r->GetU32(&idx));
      MAMDR_RETURN_IF_ERROR(CheckParamIndex(idx, /*want_embedding=*/false));
      idxs[i] = idx;
    }
    MAMDR_RETURN_IF_ERROR(r->ExpectEnd());
  }

  obs::ContextSpan apply_span("ps.shard.apply", "ps.shard", &recorder_);
  std::vector<std::vector<float>> values(idxs.size());
  std::vector<float*> dst(idxs.size());
  for (size_t k = 0; k < idxs.size(); ++k) {
    values[k].resize(static_cast<size_t>(NumElements(layout.shape(idxs[k]))));
    dst[k] = values[k].data();
  }
  server_.ReadDense(idxs, dst);
  PayloadWriter w;
  for (size_t k = 0; k < idxs.size(); ++k) {
    w.PutU32(static_cast<uint32_t>(idxs[k]));
    w.PutU64(values[k].size());
    w.PutF32Array(values[k].data(), values[k].size());
  }
  return w.Take();
}

Result<std::string> ShardServer::HandlePushParams(PayloadReader* r,
                                                  PsWrite mode) {
  const PsLayout& layout = server_.layout();
  float beta = 1.0f;
  // Parse and validate the whole message before touching state: a push
  // applies on this shard entirely or not at all.
  std::vector<int64_t> idxs;
  std::vector<std::vector<float>> values;
  {
    obs::ContextSpan decode_span("ps.shard.decode", "ps.shard", &recorder_);
    if (mode == PsWrite::kEq3) MAMDR_RETURN_IF_ERROR(r->GetF32(&beta));
    uint32_t n = 0;
    MAMDR_RETURN_IF_ERROR(r->GetU32(&n));
    if (n > static_cast<uint64_t>(layout.num_params())) {
      return Status::InvalidArgument("push_params: count " +
                                     std::to_string(n) +
                                     " exceeds layout size");
    }
    idxs.reserve(n);
    values.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t idx = 0;
      MAMDR_RETURN_IF_ERROR(r->GetU32(&idx));
      MAMDR_RETURN_IF_ERROR(CheckParamIndex(idx, /*want_embedding=*/false));
      const int64_t want = NumElements(layout.shape(idx));
      uint64_t size = 0;
      MAMDR_RETURN_IF_ERROR(r->GetU64(&size));
      if (size != static_cast<uint64_t>(want)) {
        return Status::InvalidArgument(
            "push_params: param " + std::to_string(idx) + " size " +
            std::to_string(size) + " != " + std::to_string(want));
      }
      std::vector<float> data(static_cast<size_t>(size));
      MAMDR_RETURN_IF_ERROR(r->GetF32Array(data.data(), data.size()));
      idxs.push_back(idx);
      values.push_back(std::move(data));
    }
    MAMDR_RETURN_IF_ERROR(r->ExpectEnd());
  }

  obs::ContextSpan apply_span("ps.shard.apply", "ps.shard", &recorder_);
  std::vector<const float*> src;
  src.reserve(values.size());
  for (const std::vector<float>& v : values) src.push_back(v.data());
  server_.WriteDense(idxs, src, beta, mode);
  return std::string();
}

Status ShardServer::DecodeOwnedRows(PayloadReader* r, uint32_t idx,
                                    const char* op,
                                    std::vector<int64_t>* rows) const {
  const int64_t table_rows = server_.layout().shape(idx)[0];
  const int64_t dim = server_.layout().shape(idx)[1];
  uint64_t nrows = 0;
  MAMDR_RETURN_IF_ERROR(r->GetU64(&nrows));
  const uint64_t max_rows =
      kMaxFrameBytes / (static_cast<uint64_t>(dim) * sizeof(float));
  if (nrows > max_rows) {
    return Status::InvalidArgument(std::string(op) + ": row count " +
                                   std::to_string(nrows) +
                                   " exceeds frame budget");
  }
  rows->resize(static_cast<size_t>(nrows));
  for (auto& row : *rows) {
    MAMDR_RETURN_IF_ERROR(r->GetI64(&row));
    if (row < 0 || row >= table_rows) {
      return Status::InvalidArgument(
          std::string(op) + ": row " + std::to_string(row) +
          " out of range [0, " + std::to_string(table_rows) +
          ") for param " + std::to_string(idx));
    }
    if (ring_.ShardForRow(idx, row) != config_.shard_id) {
      return Status::InvalidArgument(
          "shard " + std::to_string(config_.shard_id) +
          ": not the owner of param " + std::to_string(idx) + " row " +
          std::to_string(row));
    }
  }
  return Status::OK();
}

Result<std::string> ShardServer::HandlePullRows(PayloadReader* r) {
  uint32_t idx = 0;
  int64_t dim = 0;
  std::vector<int64_t> rows;
  {
    obs::ContextSpan decode_span("ps.shard.decode", "ps.shard", &recorder_);
    MAMDR_RETURN_IF_ERROR(r->GetU32(&idx));
    MAMDR_RETURN_IF_ERROR(CheckParamIndex(idx, /*want_embedding=*/true));
    dim = server_.layout().shape(idx)[1];
    if (dim <= 0) {
      return Status::InvalidArgument("pull_rows: param " +
                                     std::to_string(idx) + " has no columns");
    }
    MAMDR_RETURN_IF_ERROR(DecodeOwnedRows(r, idx, "pull_rows", &rows));
    MAMDR_RETURN_IF_ERROR(r->ExpectEnd());
  }

  obs::ContextSpan apply_span("ps.shard.apply", "ps.shard", &recorder_);
  std::vector<float> packed(rows.size() * static_cast<size_t>(dim));
  server_.ReadRows(idx, rows, packed.data());
  PayloadWriter w;
  w.PutU64(static_cast<uint64_t>(dim));
  w.PutF32Array(packed.data(), packed.size());
  return w.Take();
}

Result<std::string> ShardServer::HandlePushRows(PayloadReader* r,
                                                PsWrite mode) {
  uint32_t idx = 0;
  float beta = 1.0f;
  std::vector<int64_t> rows;
  std::vector<float> data;
  {
    obs::ContextSpan decode_span("ps.shard.decode", "ps.shard", &recorder_);
    MAMDR_RETURN_IF_ERROR(r->GetU32(&idx));
    MAMDR_RETURN_IF_ERROR(CheckParamIndex(idx, /*want_embedding=*/true));
    const int64_t table_dim = server_.layout().shape(idx)[1];
    if (table_dim <= 0) {
      return Status::InvalidArgument("push_rows: param " +
                                     std::to_string(idx) + " has no columns");
    }
    if (mode == PsWrite::kEq3) MAMDR_RETURN_IF_ERROR(r->GetF32(&beta));
    MAMDR_RETURN_IF_ERROR(DecodeOwnedRows(r, idx, "push_rows", &rows));
    uint64_t dim = 0;
    MAMDR_RETURN_IF_ERROR(r->GetU64(&dim));
    if (dim != static_cast<uint64_t>(table_dim)) {
      return Status::InvalidArgument(
          "push_rows: dim " + std::to_string(dim) + " != table dim " +
          std::to_string(table_dim) + " for param " + std::to_string(idx));
    }
    data.resize(rows.size() * static_cast<size_t>(dim));
    MAMDR_RETURN_IF_ERROR(r->GetF32Array(data.data(), data.size()));
    MAMDR_RETURN_IF_ERROR(r->ExpectEnd());
  }

  obs::ContextSpan apply_span("ps.shard.apply", "ps.shard", &recorder_);
  server_.WriteRows(idx, rows, data.data(), beta, mode);
  return std::string();
}

Status ShardServer::SaveCheckpoint() {
  if (config_.checkpoint_path.empty()) return Status::OK();
  checkpoint::NamedTensors named;
  checkpoint::AppendPsParams(server_.SnapshotAll(), &named);
  return checkpoint::SaveTensors(named, config_.checkpoint_path);
}

Status ShardServer::RestoreFromCheckpoint() {
  if (config_.checkpoint_path.empty()) {
    return Status::FailedPrecondition("shard has no checkpoint path");
  }
  MAMDR_ASSIGN_OR_RETURN(const auto named,
                         checkpoint::LoadTensors(config_.checkpoint_path));
  MAMDR_ASSIGN_OR_RETURN(
      const std::vector<Tensor> params,
      checkpoint::ReadPsParams(named, server_.layout().shapes(), {}));
  server_.RestoreAll(params);
  return Status::OK();
}

ShardStats ShardServer::stats() const {
  const PsStats ps = server_.stats();
  ShardStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  out.rows_pulled = ps.rows_pulled;
  out.rows_pushed = ps.rows_pushed;
  return out;
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#include "ps/net/fault_proxy.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/lockdep.h"
#include "ps/net/wire.h"

namespace mamdr {
namespace ps {
namespace net {

namespace cnet = ::mamdr::net;

namespace {

uint32_t GetU32Le(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

FaultProxy::FaultProxy(FaultProxyConfig config,
                       std::function<int()> target_port)
    : config_(config), target_port_(std::move(target_port)), rng_(config.seed) {
  MAMDR_CHECK(target_port_ != nullptr);
}

FaultProxy::~FaultProxy() { Stop(); }

Status FaultProxy::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fault proxy already running");
  }
  MAMDR_RETURN_IF_ERROR(listener_.Bind(0));
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FaultProxy::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Wake();  // event-driven: pops PollAccept(-1) immediately
  if (accept_thread_.joinable()) accept_thread_.join();
  // Cut every live session so its thread falls out of any blocked relay
  // I/O, then join. The accept thread is gone, so sessions_ gains no new
  // entries; fds close only under sessions_mu_, so these shutdowns can
  // never hit a recycled fd number.
  std::vector<Session*> to_join;
  {
    MutexLock lock(&sessions_mu_);
    for (const std::unique_ptr<Session>& s : sessions_) {
      cnet::ShutdownFd(s->client.get());
      cnet::ShutdownFd(s->upstream.get());
      to_join.push_back(s.get());
    }
  }
  for (Session* s : to_join) {
    if (s->thread.joinable()) s->thread.join();
  }
  {
    MutexLock lock(&sessions_mu_);
    sessions_.clear();
  }
  listener_.Close();
  port_ = 0;
  running_.store(false, std::memory_order_release);
}

FaultProxyStats FaultProxy::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void FaultProxy::AcceptLoop() {
  for (;;) {
    const Result<int> accepted = listener_.PollAccept(/*timeout_ms=*/-1);
    if (stopping_.load(std::memory_order_acquire)) {
      if (accepted.ok() && accepted.value() >= 0) {
        cnet::ScopedFd drop(accepted.value());
      }
      return;
    }
    if (!accepted.ok()) return;
    if (accepted.value() < 0) continue;
    ReapFinishedSessions();
    auto owned = std::make_unique<Session>();
    Session* s = owned.get();
    s->client.reset(accepted.value());
    {
      MutexLock lock(&sessions_mu_);
      sessions_.push_back(std::move(owned));
    }
    s->thread = std::thread([this, s] { RunSession(s); });
  }
}

void FaultProxy::ReapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    MutexLock lock(&sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::unique_ptr<Session>& s : finished) {
    if (s->thread.joinable()) s->thread.join();
  }
}

Result<std::string> FaultProxy::ReadRawFrame(int fd, bool* clean_close) {
  if (clean_close != nullptr) *clean_close = false;
  std::string frame(cnet::kFrameOverhead - 4, '\0');  // magic + length
  // First byte by hand: EOF at a frame boundary is the peer ending its
  // session (pooled connection dropped), not a cut.
  MAMDR_ASSIGN_OR_RETURN(const size_t first,
                         cnet::RecvSome(fd, frame.data(), 1));
  if (first == 0) {
    if (clean_close != nullptr) *clean_close = true;
    return Status::Unavailable("proxy: peer closed");
  }
  MAMDR_RETURN_IF_ERROR(
      cnet::RecvAll(fd, frame.data() + 1, frame.size() - 1));
  if (GetU32Le(frame.data()) != cnet::kFrameMagic) {
    return Status::InvalidArgument("proxy: bad frame magic");
  }
  const uint32_t len = GetU32Le(frame.data() + 4);
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("proxy: oversize frame");
  }
  const size_t head = frame.size();
  frame.resize(head + len + 4);  // payload + CRC footer
  MAMDR_RETURN_IF_ERROR(cnet::RecvAll(fd, frame.data() + head, len + 4));
  return frame;
}

void FaultProxy::RunSession(Session* s) {
  bool refuse;
  {
    MutexLock lock(&mu_);
    ++stats_.connections;
    refuse = rng_.Bernoulli(config_.refuse_prob);
    if (refuse) ++stats_.refused;
  }
  if (!refuse) {
    // Refused sessions close without reading; everything else relays
    // exchange after exchange until a fault cuts or a peer hangs up.
    while (RelayExchange(s)) {
    }
  }
  {
    MutexLock lock(&sessions_mu_);
    s->client.reset();
    s->upstream.reset();
  }
  s->done.store(true, std::memory_order_release);
}

bool FaultProxy::RelayExchange(Session* s) {
  bool clean_close = false;
  Result<std::string> request = ReadRawFrame(s->client.get(), &clean_close);
  if (!request.ok()) {
    if (!clean_close) {
      MutexLock lock(&mu_);
      ++stats_.relay_errors;
    }
    return false;
  }
  std::string req = std::move(request).value();

  // Fixed draw order per exchange, drawn only after a full request frame
  // arrived: the damage schedule is a pure function of (seed, session
  // sequence, exchange sequence), independent of timing.
  bool cut_req, corrupt_req, cut_resp, corrupt_resp, delay;
  uint64_t mangle_draw;
  {
    MutexLock lock(&mu_);
    ++stats_.exchanges;
    cut_req = rng_.Bernoulli(config_.cut_request_prob);
    corrupt_req = rng_.Bernoulli(config_.corrupt_request_prob);
    cut_resp = rng_.Bernoulli(config_.cut_response_prob);
    corrupt_resp = rng_.Bernoulli(config_.corrupt_response_prob);
    delay = rng_.Bernoulli(config_.latency_prob);
    mangle_draw = rng_.NextU64();  // byte position for cuts/flips
  }

  if (!s->upstream.valid()) {
    // Lazy per-session upstream dial, re-resolving the target port: a
    // shard respawned on a fresh port is found by the next session.
    const int port = target_port_();
    Result<int> conn =
        port > 0 ? cnet::ConnectLoopback(port, /*io_timeout_us=*/0)
                 : Result<int>(Status::Unavailable("proxy target down"));
    if (!conn.ok()) {
      MutexLock lock(&mu_);
      ++stats_.relay_errors;
      return false;
    }
    MutexLock lock(&sessions_mu_);
    s->upstream.reset(conn.value());
  }

  if (corrupt_req) {
    req[mangle_draw % req.size()] ^= 0x20;
    MutexLock lock(&mu_);
    ++stats_.corrupted_requests;
  }
  if (cut_req) {
    // Forward a strict prefix, then end the session: the server sees a
    // connection cut mid-message, the client an unanswered request on a
    // now-dead connection.
    const size_t keep = mangle_draw % req.size();
    (void)cnet::SendAll(s->upstream.get(), req.data(), keep);
    MutexLock lock(&mu_);
    ++stats_.cut_requests;
    return false;
  }
  if (!cnet::SendAll(s->upstream.get(), req.data(), req.size()).ok()) {
    MutexLock lock(&mu_);
    ++stats_.relay_errors;
    return false;
  }

  Result<std::string> response = ReadRawFrame(s->upstream.get());
  if (!response.ok()) {
    MutexLock lock(&mu_);
    ++stats_.relay_errors;
    return false;
  }
  std::string resp = std::move(response).value();

  if (delay) {
    {
      MutexLock lock(&mu_);
      ++stats_.delayed;
    }
    // An injected latency spike is a slow network, and must behave like
    // one: nothing may be locked while the proxy sits on the response.
    lockdep::AssertNoLocksHeld("ps.net.fault_proxy.latency");
    std::this_thread::sleep_for(std::chrono::microseconds(config_.latency_us));
  }
  if (corrupt_resp) {
    resp[mangle_draw % resp.size()] ^= 0x20;
    MutexLock lock(&mu_);
    ++stats_.corrupted_responses;
  }
  if (cut_resp) {
    const size_t keep = mangle_draw % resp.size();
    (void)cnet::SendAll(s->client.get(), resp.data(), keep);
    MutexLock lock(&mu_);
    ++stats_.cut_responses;
    return false;
  }
  return cnet::SendAll(s->client.get(), resp.data(), resp.size()).ok();
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

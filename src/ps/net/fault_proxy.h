// Deterministic network fault proxy: a real TCP hop that breaks things.
//
// FaultProxy listens on its own loopback port and relays each connection to
// a target shard, parsing the frame boundaries so it can injure traffic in
// precisely the ways the client stack claims to survive:
//
//   * refusal       — accept, then close before reading (dead backend);
//   * latency spike — hold the response for latency_us;
//   * cut request   — forward only a prefix of the request frame, close;
//   * corrupt req.  — flip one byte of the request frame (dies at the
//                     server's CRC; the server closes, the client retries);
//   * cut response  — forward only a prefix of the response frame, close;
//   * corrupt resp. — flip one byte of the response frame (dies at the
//                     client's CRC, surfaces as retryable kUnavailable).
//
// Session model (PR 9, matching the pooled client): a connection is a
// *session* carrying many request/response exchanges. `refuse` is drawn
// once per session at accept; every other fault is drawn per *exchange*,
// so damage now lands mid-stream on a reused connection — the fault
// surface the connection pool actually has — not just at connect. A fault
// that cuts (cut request/response, upstream failure) ends the whole
// session: both sides close, the client's pool poisons the connection and
// redials. All decisions come from one seeded Rng in a fixed draw order
// (refuse at accept; then cut_req, corrupt_req, cut_resp, corrupt_resp,
// delay, mangle position per exchange); with client exchanges serialized
// — one op in flight per client, workers serialized in the chaos harness
// — a seed reproduces the exact damage schedule.
//
// The upstream connection to the real shard is dialed lazily once per
// session (re-resolving target_port), so a shard that ShardGroup
// respawned on a fresh port is picked up by the next session — tests
// point a ShardDirectory at proxy ports and the proxies chase the real
// shards.
//
// Each session runs on its own thread (the accept thread reaps finished
// ones), so a stalled session never blocks new connections; the client's
// kernel I/O deadline (NetPsClientConfig::rpc_deadline_us) bounds how long
// it waits on any send or receive through the proxy. The proxy itself arms
// no deadline: it tests every relay step's Status with ok(), so a
// kDeadlineExceeded would end a session like any other relay error.
#ifndef MAMDR_PS_NET_FAULT_PROXY_H_
#define MAMDR_PS_NET_FAULT_PROXY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mamdr {
namespace ps {
namespace net {

struct FaultProxyConfig {
  uint64_t seed = 0;
  /// P(session closed at accept, before reading anything). Per session.
  double refuse_prob = 0.0;
  /// P(request frame forwarded only as a prefix; session ends). Per
  /// exchange, like every probability below.
  double cut_request_prob = 0.0;
  /// P(one request byte flipped before forwarding).
  double corrupt_request_prob = 0.0;
  /// P(response frame forwarded only as a prefix; session ends).
  double cut_response_prob = 0.0;
  /// P(one response byte flipped before forwarding).
  double corrupt_response_prob = 0.0;
  /// P(response held for latency_us before forwarding).
  double latency_prob = 0.0;
  int64_t latency_us = 1'000;
};

/// What the proxy actually did (read by tests after a run).
struct FaultProxyStats {
  uint64_t connections = 0;  // sessions accepted
  uint64_t exchanges = 0;    // request/response pairs begun
  uint64_t refused = 0;
  uint64_t cut_requests = 0;
  uint64_t corrupted_requests = 0;
  uint64_t cut_responses = 0;
  uint64_t corrupted_responses = 0;
  uint64_t delayed = 0;
  /// Relays that failed for infrastructure reasons (target down, ...).
  uint64_t relay_errors = 0;
};

class FaultProxy {
 public:
  /// `target_port` is called once per connection; returning 0 means the
  /// target is down (the proxy closes the client connection).
  FaultProxy(FaultProxyConfig config, std::function<int()> target_port);
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  Status Start();
  void Stop();

  int port() const { return port_; }
  FaultProxyStats stats() const MAMDR_EXCLUDES(mu_);

 private:
  /// One live relayed connection: its thread, both fds, and a done flag
  /// the accept thread polls to reap finished sessions. Fds are reset
  /// (closed) only under sessions_mu_, so Stop() can never cut a recycled
  /// fd number.
  struct Session {
    std::thread thread;
    ::mamdr::net::ScopedFd client;
    ::mamdr::net::ScopedFd upstream;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void RunSession(Session* s);
  /// One request/response relay on an established session. Returns false
  /// when the session must end (fault cut, peer closed, upstream error).
  bool RelayExchange(Session* s);
  /// Join and drop every finished session (accept thread only).
  void ReapFinishedSessions();

  /// Read one whole frame (header + payload + CRC) as raw bytes, without
  /// validating the CRC — damaged bytes must still be relayed faithfully.
  /// `*clean_close` (optional) reports EOF before any header byte: the
  /// peer ending its session, not a cut.
  Result<std::string> ReadRawFrame(int fd, bool* clean_close = nullptr);

  const FaultProxyConfig config_;
  const std::function<int()> target_port_;

  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.net.fault_proxy")};
  Rng rng_ MAMDR_GUARDED_BY(mu_);
  FaultProxyStats stats_ MAMDR_GUARDED_BY(mu_);

  /// Session registry. Leaf lock: held only for list edits and fd
  /// register/close, never across relay I/O or a join.
  mutable Mutex sessions_mu_{MAMDR_LOCK_CLASS("ps.net.fault_proxy.sessions")};
  std::vector<std::unique_ptr<Session>> sessions_
      MAMDR_GUARDED_BY(sessions_mu_);

  ::mamdr::net::Listener listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_FAULT_PROXY_H_

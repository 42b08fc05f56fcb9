// Online metrics exposition: Prometheus text rendering of the obs registry
// and a minimal blocking HTTP/1.1 server over POSIX sockets serving it.
//
// The server exists so a live serving process can be watched (`curl
// 127.0.0.1:$PORT/metrics`) without touching the offline --metrics-out
// path: GET /metrics renders the full registry (runtime metrics included —
// latency histograms are the point) in Prometheus text exposition format
// v0.0.4, GET /healthz answers 200 "ok". One accept thread handles
// connections sequentially — scrape traffic is one poll every few seconds,
// so a blocking single-threaded loop is the simplest correct design. The
// accept thread serves each request itself. A slow-client deadline bounds
// the whole request: before each recv/send the kernel I/O deadline
// (net::SetIoTimeout) is re-armed to what is left of the budget, so a
// scraper that stalls, or sends a byte at a time, is dropped once the
// budget is spent, and no thread is needed to enforce it. Stop() (and
// the destructor) shuts the listener down and joins the accept thread; the
// serving hot path never blocks on the server.
//
// The socket plumbing (listener, EINTR-safe I/O, I/O deadline) lives in
// common/net.{h,cc}, shared with the networked parameter server (ps/net);
// this file only knows HTTP and the exposition format.
#ifndef MAMDR_SERVE_METRICS_SERVER_H_
#define MAMDR_SERVE_METRICS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/net.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace mamdr {
namespace serve {

/// Render a registry snapshot in Prometheus text exposition format v0.0.4.
///
/// Registry names map to Prometheus families as `mamdr_<name>` with every
/// character outside [a-zA-Z0-9_:] replaced by '_'. A name may carry a
/// Prometheus-style label block which passes through verbatim:
/// `serve.topk.requests{domain="3"}` renders as
/// `mamdr_serve_topk_requests{domain="3"}`. Histograms emit the standard
/// `_bucket` (cumulative, with `le` merged into any existing labels),
/// `_sum`, and `_count` families. Rows arrive name-sorted from
/// Registry::Snapshot(), so each family's `# TYPE` header is emitted
/// exactly once and the output is deterministic for a given snapshot.
std::string PrometheusText(const obs::RegistrySnapshot& snapshot);

/// Snapshot + render a registry (include_runtime=true — the live endpoint
/// exists precisely for the runtime metrics).
std::string PrometheusText(const obs::Registry& registry);

/// Blocking HTTP/1.1 metrics endpoint bound to 127.0.0.1.
class MetricsServer {
 public:
  /// `registry` is borrowed and must outlive the server; nullptr means the
  /// process-global registry.
  explicit MetricsServer(obs::Registry* registry = nullptr);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, for tests)
  /// and start the accept thread. Fails if already running or the port
  /// cannot be bound.
  Status Start(int port);

  /// Shut the listener down and join the accept thread. Idempotent; the
  /// destructor calls it.
  void Stop();

  /// The bound port (the resolved one when Start(0) was used); 0 when not
  /// running.
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Test hook: how long one request (read and reply) may take before the
  /// connection is dropped. Call before Start(); the default (2s) is far
  /// above any honest scrape.
  void set_slow_client_timeout_for_test(int64_t timeout_us) {
    slow_client_timeout_us_ = timeout_us;
  }

 private:
  void AcceptLoop();
  void ServeRequest(int fd);

  obs::Registry* registry_;  // borrowed, never null after construction
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  net::Listener listener_;
  int port_ = 0;
  int64_t slow_client_timeout_us_ = 2'000'000;
  std::thread accept_thread_;
};

}  // namespace serve
}  // namespace mamdr

#endif  // MAMDR_SERVE_METRICS_SERVER_H_

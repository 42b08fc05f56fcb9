// Serving-path observability tests (ISSUE 5).
//
// Locks the Prometheus text exposition against a checked-in golden file
// (regenerate intentional format changes with
//   MAMDR_REGEN_GOLDEN=1 ctest -R PrometheusGolden
// ) and round-trips the /metrics HTTP server over a real loopback socket on
// an ephemeral port. Everything runs against a private Registry so the
// global one (shared with other suites in this binary) stays untouched.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/net.h"

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/metrics_server.h"

namespace mamdr {
namespace serve {
namespace {

/// Minimal blocking HTTP client: send one request line to 127.0.0.1:port
/// and return the whole response (headers + body).
std::string HttpRequest(int port, const std::string& request) {
  auto conn = net::ConnectLoopback(port);
  if (!conn.ok()) {
    ADD_FAILURE() << "connect failed: " << conn.status().ToString();
    return "";
  }
  net::ScopedFd fd(conn.value());
  // A reset during send just yields an empty response below.
  const Status sent = net::SendAll(fd.get(), request.data(), request.size());
  (void)sent;
  std::string response;
  char buf[4096];
  for (;;) {
    auto n = net::RecvSome(fd.get(), buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) break;
    response.append(buf, n.value());
  }
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRequest(port,
                     "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

/// A registry with one of everything the renderer handles: labeled and
/// unlabeled counters, a gauge, and a small deterministic histogram.
void PopulateDeterministic(obs::Registry* reg) {
  reg->counter("serve.topk.requests{domain=\"0\"}")->Add(7);
  reg->counter("serve.topk.requests{domain=\"1\"}")->Add(3);
  reg->counter("ps.embedding_cache.hits")->Add(41);
  reg->gauge("serve.candidates{domain=\"0\"}")->Set(128.0);
  obs::Histogram* h =
      reg->histogram("rpc.latency_micros", {1.0, 2.0, 4.0, 8.0},
                     obs::Stability::kRuntime);
  for (double v : {0.5, 1.5, 3.0, 3.5, 100.0}) h->Observe(v);
}

TEST(PrometheusTextTest, FamiliesGroupedWithSingleTypeHeader) {
  obs::Registry reg;
  PopulateDeterministic(&reg);
  const std::string text = PrometheusText(reg);

  // Both labeled rows render under one family with exactly one TYPE line.
  EXPECT_NE(text.find("# TYPE mamdr_serve_topk_requests counter"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE mamdr_serve_topk_requests counter"),
            text.rfind("# TYPE mamdr_serve_topk_requests counter"));
  EXPECT_NE(text.find("mamdr_serve_topk_requests{domain=\"0\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_serve_topk_requests{domain=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_serve_candidates{domain=\"0\"} 128"),
            std::string::npos);
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulativeWithInf) {
  obs::Registry reg;
  PopulateDeterministic(&reg);
  const std::string text = PrometheusText(reg);

  EXPECT_NE(text.find("# TYPE mamdr_rpc_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_bucket{le=\"4\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_bucket{le=\"8\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_count 5"),
            std::string::npos);
  EXPECT_NE(text.find("mamdr_rpc_latency_micros_sum 108.5"),
            std::string::npos);
}

TEST(PrometheusTextTest, RuntimeMetricsIncludedBySnapshotDefault) {
  // The live endpoint exists for the runtime metrics; the deterministic
  // export excludes them. Both views come from the same Snapshot() switch.
  obs::Registry reg;
  reg.counter("stable.count")->Add(1);
  reg.counter("runtime.count", obs::Stability::kRuntime)->Add(1);
  const std::string live = PrometheusText(reg);
  EXPECT_NE(live.find("mamdr_runtime_count"), std::string::npos);
  const std::string det =
      PrometheusText(reg.Snapshot(/*include_runtime=*/false));
  EXPECT_EQ(det.find("mamdr_runtime_count"), std::string::npos);
  EXPECT_NE(det.find("mamdr_stable_count"), std::string::npos);
}

TEST(PrometheusGoldenTest, ExpositionMatchesCheckedInGolden) {
  obs::Registry reg;
  PopulateDeterministic(&reg);
  const std::string text = PrometheusText(reg);

  const std::filesystem::path golden_path =
      std::filesystem::path(MAMDR_SOURCE_DIR) / "tests" / "golden" /
      "prometheus_exposition.txt";
  if (std::getenv("MAMDR_REGEN_GOLDEN") != nullptr) {
    std::filesystem::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << text;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << "missing " << golden_path
      << " — regenerate with MAMDR_REGEN_GOLDEN=1 ctest -R PrometheusGolden";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(text, buf.str())
      << "Prometheus exposition drifted; if intentional, regenerate the "
         "golden file with MAMDR_REGEN_GOLDEN=1";
}

TEST(MetricsServerTest, ServesMetricsAndHealthOverHttp) {
  obs::Registry reg;
  PopulateDeterministic(&reg);
  obs::Histogram* lat = obs::LatencyHistogram(&reg, "serve.topk.latency_micros");
  lat->Observe(120.0);

  MetricsServer server(&reg);
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("mamdr_serve_topk_requests{domain=\"0\"} 7"),
            std::string::npos);
  // The serving latency histogram is exposed with a non-zero count.
  EXPECT_NE(metrics.find("mamdr_serve_topk_latency_micros_count 1"),
            std::string::npos);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(server.port(),
                        "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // The endpoint's own traffic is counted (4 requests above).
  EXPECT_NE(metrics.find("mamdr_serve_metrics_server_requests"),
            std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(MetricsServerTest, StartTwiceFailsAndRestartWorks) {
  obs::Registry reg;
  MetricsServer server(&reg);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());  // already running
  const int first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  EXPECT_EQ(server.port(), 0);
  // A stopped server can be started again.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
            std::string::npos);
  server.Stop();
}

TEST(MetricsServerTest, SlowClientIsShutDownAndServerStaysLive) {
  obs::Registry reg;
  MetricsServer server(&reg);
  server.set_slow_client_timeout_for_test(/*timeout_us=*/50'000);
  ASSERT_TRUE(server.Start(0).ok());

  // Connect, send half a request, then stall. The slow-client deadline
  // must drop the connection after the timeout instead of wedging the
  // accept loop.
  auto conn = net::ConnectLoopback(server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  net::ScopedFd fd(conn.value());
  const char partial[] = "GET /metr";  // no terminating \r\n\r\n, ever
  ASSERT_TRUE(net::SendAll(fd.get(), partial, sizeof(partial) - 1).ok());

  // The server closing the connection surfaces here as EOF (RecvSome
  // returns 0) or a reset — either way the blocking read finishes instead
  // of hanging.
  char buf[64];
  auto n = net::RecvSome(fd.get(), buf, sizeof(buf));
  EXPECT_TRUE(!n.ok() || n.value() == 0);
  fd.reset();

  // The accept loop survived the slow client and serves the next request.
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
            std::string::npos);
  server.Stop();
}

TEST(MetricsServerTest, DrippingClientIsCutWithinOneTimeout) {
  // A scraper that keeps sending one byte every timeout/4 makes progress
  // on every recv, so only a whole-request budget can cut it. The full
  // request would take ~40 x timeout/4; the server must drop it after
  // about one timeout and keep serving.
  constexpr int64_t kTimeoutUs = 200'000;
  obs::Registry reg;
  MetricsServer server(&reg);
  server.set_slow_client_timeout_for_test(kTimeoutUs);
  ASSERT_TRUE(server.Start(0).ok());

  auto conn = net::ConnectLoopback(server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  net::ScopedFd fd(conn.value());
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  const int64_t start_us = obs::MonotonicMicros();
  size_t sent = 0;
  // ProbeConnAlive turns false once the server has closed its end.
  while (sent < request.size() && net::ProbeConnAlive(fd.get())) {
    if (!net::SendAll(fd.get(), request.data() + sent, 1).ok()) break;
    ++sent;
    std::this_thread::sleep_for(std::chrono::microseconds(kTimeoutUs / 4));
  }
  const int64_t elapsed_us = obs::MonotonicMicros() - start_us;
  EXPECT_LT(sent, request.size()) << "the drip was never cut";
  EXPECT_LT(elapsed_us, 3 * kTimeoutUs);
  fd.reset();

  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
            std::string::npos);
  server.Stop();
}

TEST(MetricsServerTest, MetricsRegisteredAfterFirstScrapeAppearInNext) {
  // Per-shard series register lazily (a ShardServer registers its op
  // histograms in its constructor, which can run long after the metrics
  // endpoint started serving). The exposition must be a fresh registry
  // snapshot per scrape — a cached render would pin the first scrape's
  // metric set forever.
  obs::Registry reg;
  reg.counter("ps.net.shard.requests{shard=\"0\"}",
              obs::Stability::kRuntime)->Add(2);
  MetricsServer server(&reg);
  ASSERT_TRUE(server.Start(0).ok());

  const std::string first = HttpGet(server.port(), "/metrics");
  EXPECT_NE(first.find("mamdr_ps_net_shard_requests{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_EQ(first.find("mamdr_ps_net_shard_op_us"), std::string::npos);

  // Register a histogram family and a new labelled counter *after* the
  // first scrape, as a freshly spawned shard would.
  obs::Histogram* h = reg.histogram(
      "ps.net.shard.op_us{shard=\"1\",op=\"ping\"}",
      obs::Histogram::ExponentialBounds(10.0, 2.0, 4),
      obs::Stability::kRuntime);
  h->Observe(15.0);
  reg.counter("ps.net.client.pool.dials", obs::Stability::kRuntime)->Add(5);

  const std::string second = HttpGet(server.port(), "/metrics");
  EXPECT_NE(second.find("# TYPE mamdr_ps_net_shard_op_us histogram"),
            std::string::npos);
  EXPECT_NE(second.find("mamdr_ps_net_shard_op_us_count"
                        "{shard=\"1\",op=\"ping\"} 1"),
            std::string::npos);
  EXPECT_NE(second.find("mamdr_ps_net_client_pool_dials 5"),
            std::string::npos);
  // The pre-existing series is still there.
  EXPECT_NE(second.find("mamdr_ps_net_shard_requests{shard=\"0\"} 2"),
            std::string::npos);
  server.Stop();
}

TEST(MetricsServerTest, RejectsBadPort) {
  obs::Registry reg;
  MetricsServer server(&reg);
  EXPECT_FALSE(server.Start(-1).ok());
  EXPECT_FALSE(server.Start(70000).ok());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace serve
}  // namespace mamdr

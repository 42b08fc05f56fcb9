#include "serve/metrics_server.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "common/net.h"
#include "obs/clock.h"

namespace mamdr {
namespace serve {

namespace {

/// Prometheus sample value: finite values round-trip via %.17g, non-finite
/// use the exposition spellings (unlike JSON there is no null).
std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `le` edges use the shortest exact spelling (%g is enough: every edge in
/// the canonical layouts is a small power of two).
std::string PromEdge(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Split a registry name into (family, label block): the label block is the
/// trailing `{...}` if present, passed through verbatim. The family is
/// prefixed `mamdr_` and sanitized to the Prometheus grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
void SplitName(const std::string& name, std::string* family,
               std::string* labels) {
  const size_t brace = name.find('{');
  const std::string base =
      brace == std::string::npos ? name : name.substr(0, brace);
  *labels = brace == std::string::npos ? "" : name.substr(brace);
  *family = "mamdr_";
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    family->push_back(ok ? c : '_');
  }
}

/// Merge an extra label into an existing (possibly empty) label block:
/// ("", le="1") -> {le="1"}; ({domain="3"}, le="1") -> {domain="3",le="1"}.
std::string MergeLabel(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return labels.substr(0, labels.size() - 1) + "," + extra + "}";
}

/// Group rows by sanitized family so each family gets exactly one TYPE
/// header even when an unrelated name sorts between two labeled variants.
/// Rows arrive name-sorted and std::map keeps families sorted, so the
/// output is deterministic for a given snapshot.
template <typename Row>
std::map<std::string, std::vector<std::pair<std::string, const Row*>>>
GroupByFamily(const std::vector<Row>& rows) {
  std::map<std::string, std::vector<std::pair<std::string, const Row*>>>
      families;
  for (const auto& row : rows) {
    std::string family, labels;
    SplitName(row.name, &family, &labels);
    families[family].emplace_back(labels, &row);
  }
  return families;
}

}  // namespace

std::string PrometheusText(const obs::RegistrySnapshot& snapshot) {
  std::string out;
  char buf[64];

  for (const auto& [family, rows] : GroupByFamily(snapshot.counters)) {
    out += "# TYPE " + family + " counter\n";
    for (const auto& [labels, row] : rows) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64, row->value);
      out += family + labels + " " + buf + "\n";
    }
  }

  for (const auto& [family, rows] : GroupByFamily(snapshot.gauges)) {
    out += "# TYPE " + family + " gauge\n";
    for (const auto& [labels, row] : rows) {
      out += family + labels + " " + PromDouble(row->value) + "\n";
    }
  }

  for (const auto& [family, rows] : GroupByFamily(snapshot.histograms)) {
    out += "# TYPE " + family + " histogram\n";
    for (const auto& [labels, row] : rows) {
      const obs::Histogram::Snapshot& s = row->snapshot;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < s.bounds.size(); ++i) {
        cumulative += i < s.counts.size() ? s.counts[i] : 0;
        std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
        out += family + "_bucket" +
               MergeLabel(labels, "le=\"" + PromEdge(s.bounds[i]) + "\"") +
               " " + buf + "\n";
      }
      if (s.counts.size() > s.bounds.size()) cumulative += s.counts.back();
      std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
      out += family + "_bucket" + MergeLabel(labels, "le=\"+Inf\"") + " " +
             buf + "\n";
      out += family + "_sum" + labels + " " + PromDouble(s.sum) + "\n";
      out += family + "_count" + labels + " " + buf + "\n";
    }
  }
  return out;
}

std::string PrometheusText(const obs::Registry& registry) {
  return PrometheusText(registry.Snapshot(/*include_runtime=*/true));
}

MetricsServer::MetricsServer(obs::Registry* registry)
    : registry_(registry != nullptr ? registry : &obs::Registry::Global()) {}

MetricsServer::~MetricsServer() { Stop(); }

Status MetricsServer::Start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("metrics server already running");
  }
  MAMDR_RETURN_IF_ERROR(listener_.Bind(port));
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Wake();  // pops the blocked PollAccept immediately
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  port_ = 0;
  running_.store(false, std::memory_order_release);
}

void MetricsServer::AcceptLoop() {
  obs::Counter* requests = registry_->counter(
      "serve.metrics_server.requests", obs::Stability::kRuntime);
  for (;;) {
    // Blocks until a connection or Stop()'s Wake() — no poll churn.
    const Result<int> accepted = listener_.PollAccept(/*timeout_ms=*/-1);
    if (stopping_.load(std::memory_order_acquire)) {
      if (accepted.ok() && accepted.value() >= 0) {
        net::ScopedFd drop(accepted.value());
      }
      return;
    }
    if (!accepted.ok()) return;  // listener broken; Stop() still joins
    if (accepted.value() < 0) continue;
    net::ScopedFd fd(accepted.value());
    requests->Add();
    ServeRequest(fd.get());
  }
}

void MetricsServer::ServeRequest(int fd) {
  // Slow-client guard: the whole request, read and reply, must finish
  // within slow_client_timeout_us_, or a scraper that stalls (or sends a
  // byte at a time) would hold the accept loop. Before each recv/send the
  // kernel I/O deadline is re-armed to what is left of that budget; once
  // it is spent, the request is dropped and the fd closes.
  const int64_t deadline_us = obs::MonotonicMicros() + slow_client_timeout_us_;
  const auto arm_remaining = [&] {
    const int64_t left_us = deadline_us - obs::MonotonicMicros();
    return left_us > 0 && net::SetIoTimeout(fd, left_us).ok();
  };
  std::string request;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    char buf[1024];
    if (!arm_remaining()) return;
    const Result<size_t> n = net::RecvSome(fd, buf, sizeof(buf));
    // 0 bytes / error: closed, out of time, or broken.
    if (!n.ok() || n.value() == 0) return;
    request.append(buf, n.value());
  }

  const size_t eol = request.find("\r\n");
  const std::string line =
      eol == std::string::npos ? request : request.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? "" : line.substr(0, sp1);
  const std::string path = sp2 == std::string::npos
                               ? ""
                               : line.substr(sp1 + 1, sp2 - sp1 - 1);

  std::string status = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
    registry_->counter("serve.metrics_server.bad_requests",
                       obs::Stability::kRuntime)
        ->Add();
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = PrometheusText(*registry_);
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
    registry_->counter("serve.metrics_server.bad_requests",
                       obs::Stability::kRuntime)
        ->Add();
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status.c_str(), content_type.c_str(), body.size());
  // Best-effort response: a send failure means the scraper went away.
  if (arm_remaining() && net::SendAll(fd, header, std::strlen(header)).ok() &&
      arm_remaining()) {
    (void)net::SendAll(fd, body.data(), body.size());
  }
}

}  // namespace serve
}  // namespace mamdr

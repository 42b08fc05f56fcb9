// End-to-end distributed tracing across the networked parameter server.
//
// Three contracts, each its own test:
//
//  1. Happy path: one PullDense against a 4-shard group yields a
//     `ps.client.fanout:pull_params` span with exactly one
//     `ps.client.shard:pull_params` child per target shard, and every
//     child's context reappears as the parent of a `ps.shard.handle:*`
//     span in that shard's own recorder — same trace_id end to end, with
//     decode/apply/encode sub-spans under the handler. Each shard also
//     writes its own Chrome-trace file for tools/mamdr_tracemerge.py.
//
//  2. Faults: with every proxy damage class live, each injected fault
//     surfaces as an error-tagged client span; response-side damage (the
//     request reached the shard) links into the server trace, while
//     request-side damage provably never does.
//
//  3. Determinism: two same-seed faulted runs with tracing enabled are
//     bit-identical — same per-op status codes, same final parameters,
//     same proxy damage schedule. Tracing must not introduce any timing-
//     or id-dependent branch into the transport. (Traced and untraced
//     runs are NOT comparable: a traced frame is 17 bytes longer, so the
//     same seeded corruption draw lands on a different byte.)
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/retry.h"
#include "common/status.h"
#include "lockdep_guard.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "testing/fault_proxy.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_directory.h"
#include "ps/net/shard_group.h"
#include "ps/net/shard_server.h"
#include "test_util.h"

MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace ps {
namespace net {
namespace {

constexpr int kShards = 4;

/// Twelve small dense tensors (enough that the default ring lands at least
/// one on every shard, so a dense fan-out targets all four) plus one
/// embedding table at layout index 12.
std::vector<Tensor> TraceParams() {
  std::vector<Tensor> p;
  for (int i = 0; i < 12; ++i) {
    p.push_back(Tensor({3}, 0.1f * static_cast<float>(i + 1)));
  }
  p.push_back(Tensor({32, 4}, 2.0f));
  return p;
}

std::vector<bool> TraceIsEmb() {
  std::vector<bool> e(12, false);
  e.push_back(true);
  return e;
}

RetryConfig TestRetry(int attempts) {
  RetryConfig r;
  r.max_attempts = attempts;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

NetPsClientConfig ClientConfig(int retry_attempts, uint64_t retry_seed) {
  NetPsClientConfig cc;
  cc.num_shards = kShards;
  cc.retry = TestRetry(retry_attempts);
  cc.retry_seed = retry_seed;
  // Generous against sanitizer slowdown, but short enough that a stalled
  // exchange (a corrupted length prefix leaves the server waiting for
  // bytes that never come) does not dominate the test's wall clock. The
  // cut outcome is deterministic either way: the server is stalled
  // forever, so any deadline resolves the attempt identically.
  cc.rpc_deadline_us = 2'000'000;
  return cc;
}

const std::string* Tag(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& kv : e.tags) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

std::vector<obs::TraceEvent> Named(const std::vector<obs::TraceEvent>& events,
                                   const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

/// Serializes the exact bytes of a tensor list — the determinism tests
/// compare runs bit-for-bit, not approximately.
std::string TensorBytes(const std::vector<Tensor>& ts) {
  std::string out;
  for (const Tensor& t : ts) {
    const size_t n = static_cast<size_t>(t.size()) * sizeof(float);
    const size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(&out[at], t.data(), n);
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. Happy-path fan-out: client spans link into every shard's own trace.

TEST(NetTraceTest, FanoutLinksOneChildPerShardIntoServerTraces) {
  mamdr::testing::ScopedTempDir tmp("net_trace_fanout");
  ShardGroupConfig gc;
  gc.num_shards = kShards;
  gc.trace_dir = tmp.str();
  ShardGroup group(gc, TraceParams(), TraceIsEmb());
  ASSERT_TRUE(group.Start().ok());

  // The ring decides which shards own dense params; the fan-out must hit
  // exactly that set (and the layout above was sized to cover all four).
  std::set<int> expected_shards;
  for (int64_t i = 0; i < 12; ++i) {
    expected_shards.insert(group.ring().ShardForDense(i));
  }
  ASSERT_EQ(expected_shards.size(), static_cast<size_t>(kShards));

  NetPsClient client(ClientConfig(/*retry_attempts=*/4, /*retry_seed=*/1),
                     group.directory(), TraceParams(), TraceIsEmb());
  std::vector<Tensor> out = TraceParams();
  obs::StartTracing();
  ASSERT_TRUE(client.PullDense(&out).ok());
  obs::StopTracing();

  const auto client_events = obs::TraceRecorder::Global().SnapshotEvents();
  std::vector<std::vector<obs::TraceEvent>> server_events(kShards);
  for (int s = 0; s < kShards; ++s) {
    ASSERT_NE(group.shard_for_test(s), nullptr);
    server_events[static_cast<size_t>(s)] =
        group.shard_for_test(s)->trace_recorder().SnapshotEvents();
  }

  // Root op span -> fanout span -> one shard child per target.
  const auto roots = Named(client_events, "ps.op:pull_dense");
  ASSERT_EQ(roots.size(), 1u);
  const auto fanouts = Named(client_events, "ps.client.fanout:pull_params");
  ASSERT_EQ(fanouts.size(), 1u);
  const obs::TraceEvent& fanout = fanouts[0];
  EXPECT_EQ(fanout.parent_span_id, roots[0].span_id);
  EXPECT_EQ(fanout.trace_id, roots[0].trace_id);

  std::set<int> child_shards;
  size_t children = 0;
  for (const auto& e : Named(client_events, "ps.client.shard:pull_params")) {
    if (e.parent_span_id != fanout.span_id) continue;
    ++children;
    EXPECT_EQ(e.trace_id, fanout.trace_id);
    EXPECT_EQ(Tag(e, "error"), nullptr);  // clean run: no serial fallback
    const std::string* shard_tag = Tag(e, "shard");
    ASSERT_NE(shard_tag, nullptr);
    const int shard = std::stoi(*shard_tag);
    child_shards.insert(shard);

    // The child's context crossed the wire: this shard's recorder holds
    // exactly one handler span parented on it, same trace end to end,
    // with the decode/apply/encode sub-spans under the handler.
    const auto handles = Named(server_events[static_cast<size_t>(shard)],
                               "ps.shard.handle:pull_params");
    ASSERT_EQ(handles.size(), 1u) << "shard " << shard;
    EXPECT_EQ(handles[0].trace_id, fanout.trace_id);
    EXPECT_EQ(handles[0].parent_span_id, e.span_id);
    for (const char* sub :
         {"ps.shard.decode", "ps.shard.apply", "ps.shard.encode"}) {
      const auto subs = Named(server_events[static_cast<size_t>(shard)], sub);
      ASSERT_EQ(subs.size(), 1u) << sub << " on shard " << shard;
      EXPECT_EQ(subs[0].parent_span_id, handles[0].span_id);
      EXPECT_EQ(subs[0].trace_id, fanout.trace_id);
    }
  }
  EXPECT_EQ(children, expected_shards.size());
  EXPECT_EQ(child_shards, expected_shards);

  // The accept->worker handoff is timed as a free-standing event.
  EXPECT_FALSE(Named(server_events[0], "ps.shard.queue_wait").empty());

  // Stopping the group flushes one Chrome-trace file per shard, in the
  // shape tools/mamdr_tracemerge.py consumes.
  group.Stop();
  for (int s = 0; s < kShards; ++s) {
    const std::string path =
        tmp.str() + "/shard-" + std::to_string(s) + ".trace.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"mamdrMeta\""), std::string::npos);
    EXPECT_NE(json.find("\"shard-" + std::to_string(s) + "\""),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// 2. Faults: every damage class surfaces as an error-tagged client span,
//    and server-side linkage distinguishes "reached the shard" from not.

TEST(NetTraceTest, InjectedFaultsTagClientSpansAndLinkIntoServerTraces) {
  mamdr::testing::ScopedTempDir tmp("net_trace_faults");
  ShardGroupConfig gc;
  gc.num_shards = kShards;
  gc.trace_dir = tmp.str();
  ShardGroup group(gc, TraceParams(), TraceIsEmb());
  ASSERT_TRUE(group.Start().ok());

  ShardDirectory proxy_ports{kShards};
  std::vector<std::unique_ptr<FaultProxy>> proxies;
  for (int s = 0; s < kShards; ++s) {
    FaultProxyConfig pc;
    pc.seed = 7000 + static_cast<uint64_t>(s);
    pc.refuse_prob = 0.05;
    pc.cut_request_prob = 0.05;
    pc.corrupt_request_prob = 0.06;
    pc.cut_response_prob = 0.04;
    pc.corrupt_response_prob = 0.05;
    auto proxy = std::make_unique<FaultProxy>(
        pc, [&group, s] { return group.port(s); });
    ASSERT_TRUE(proxy->Start().ok());
    proxy_ports.SetPort(s, proxy->port());
    proxies.push_back(std::move(proxy));
  }

  NetPsClient client(ClientConfig(/*retry_attempts=*/6, /*retry_seed=*/42),
                     &proxy_ports, TraceParams(), TraceIsEmb());
  std::vector<Tensor> dense = TraceParams();
  std::vector<Tensor> delta = TraceParams();
  Tensor row_delta({32, 4}, 0.5f);

  obs::StartTracing();
  for (int i = 0; i < 60; ++i) {
    // Statuses are allowed to fail (a run can exhaust its retry budget);
    // what matters here is the spans the attempt left behind.
    (void)client.Ping(i % kShards);
    (void)client.PushDenseDelta(delta, 0.01f);
    (void)client.PushRowDeltas(12, {i % 32, (i * 7 + 1) % 32}, row_delta,
                               0.01f);
    if (i % 5 == 0) (void)client.PullDense(&dense);
  }
  obs::StopTracing();

  FaultProxyStats totals;
  for (const auto& p : proxies) {
    const FaultProxyStats st = p->stats();
    totals.refused += st.refused;
    totals.cut_requests += st.cut_requests;
    totals.corrupted_requests += st.corrupted_requests;
    totals.cut_responses += st.cut_responses;
    totals.corrupted_responses += st.corrupted_responses;
  }
  // The run is long enough that every class fired (seeded, so stable).
  EXPECT_GT(totals.refused, 0u);
  EXPECT_GT(totals.cut_requests, 0u);
  EXPECT_GT(totals.corrupted_requests, 0u);
  EXPECT_GT(totals.cut_responses, 0u);
  EXPECT_GT(totals.corrupted_responses, 0u);

  const auto client_events = obs::TraceRecorder::Global().SnapshotEvents();
  std::set<uint64_t> client_trace_ids, client_span_ids;
  std::vector<const obs::TraceEvent*> error_spans;
  for (const auto& e : client_events) {
    client_trace_ids.insert(e.trace_id);
    client_span_ids.insert(e.span_id);
    if (Tag(e, "error") != nullptr) error_spans.push_back(&e);
  }
  // Every refused connect alone guarantees at least that many failures.
  EXPECT_GE(error_spans.size(), static_cast<size_t>(totals.refused));

  // Every server handler span must link back to a client span: its trace
  // and parent both minted on the client side (no orphan server traces).
  std::set<uint64_t> server_parent_ids;
  for (int s = 0; s < kShards; ++s) {
    ASSERT_NE(group.shard_for_test(s), nullptr);
    for (const auto& e :
         group.shard_for_test(s)->trace_recorder().SnapshotEvents()) {
      if (e.name.rfind("ps.shard.handle:", 0) != 0) continue;
      EXPECT_EQ(client_trace_ids.count(e.trace_id), 1u) << e.name;
      EXPECT_EQ(client_span_ids.count(e.parent_span_id), 1u) << e.name;
      server_parent_ids.insert(e.parent_span_id);
    }
  }

  // Response-side damage means the request DID reach the shard: some
  // error-tagged client span is the parent of a server handler span.
  // Request-side damage (refuse/cut/corrupt before the shard) means some
  // error-tagged span never got a server-side counterpart.
  bool error_reached_shard = false, error_never_reached = false;
  for (const obs::TraceEvent* e : error_spans) {
    if (server_parent_ids.count(e->span_id) != 0) {
      error_reached_shard = true;
    } else {
      error_never_reached = true;
    }
  }
  EXPECT_TRUE(error_reached_shard);
  EXPECT_TRUE(error_never_reached);
}

// ---------------------------------------------------------------------------
// 3. Determinism with tracing on: same seed, same run, bit-identical.

struct SeededRunResult {
  std::vector<int> codes;        // per-op status codes, in order
  std::string final_bytes;       // dense params + full table, exact bytes
  FaultProxyStats totals;        // the damage schedule actually executed
};

SeededRunResult RunSeededFaultedOps(const std::string& tmp_prefix) {
  mamdr::testing::ScopedTempDir tmp(tmp_prefix);
  ShardGroupConfig gc;
  gc.num_shards = kShards;
  gc.trace_dir = tmp.str();
  ShardGroup group(gc, TraceParams(), TraceIsEmb());
  MAMDR_CHECK(group.Start().ok());

  ShardDirectory proxy_ports{kShards};
  std::vector<std::unique_ptr<FaultProxy>> proxies;
  for (int s = 0; s < kShards; ++s) {
    FaultProxyConfig pc;
    pc.seed = 4200 + static_cast<uint64_t>(s);
    pc.refuse_prob = 0.04;
    pc.cut_request_prob = 0.04;
    pc.corrupt_request_prob = 0.05;
    pc.cut_response_prob = 0.03;
    pc.corrupt_response_prob = 0.04;
    auto proxy = std::make_unique<FaultProxy>(
        pc, [&group, s] { return group.port(s); });
    MAMDR_CHECK(proxy->Start().ok());
    proxy_ports.SetPort(s, proxy->port());
    proxies.push_back(std::move(proxy));
  }

  NetPsClient client(ClientConfig(/*retry_attempts=*/6, /*retry_seed=*/77),
                     &proxy_ports, TraceParams(), TraceIsEmb());
  obs::StartTracing();
  SeededRunResult result;
  std::vector<Tensor> dense = TraceParams();
  Tensor row_delta({32, 4}, 1.0f);
  for (int i = 0; i < 40; ++i) {
    std::vector<Tensor> delta = TraceParams();
    result.codes.push_back(static_cast<int>(
        client.PushDenseDelta(delta, 0.01f * static_cast<float>(i + 1))
            .code()));
    result.codes.push_back(static_cast<int>(
        client.PushRowDeltas(12, {i % 32, (i * 5 + 1) % 32}, row_delta, 0.02f)
            .code()));
    if (i % 3 == 0) {
      result.codes.push_back(static_cast<int>(client.PullDense(&dense).code()));
    }
  }
  obs::StopTracing();

  // Read the final state through a clean client (no proxies) so the
  // comparison cannot be blinded by a faulted final pull.
  NetPsClient verifier(ClientConfig(/*retry_attempts=*/4, /*retry_seed=*/1),
                       group.directory(), TraceParams(), TraceIsEmb());
  std::vector<Tensor> final_params = TraceParams();
  MAMDR_CHECK(verifier.PullDense(&final_params).ok());
  Tensor table({32, 4});
  MAMDR_CHECK(verifier.PullFullTable(12, &table).ok());
  final_params.push_back(std::move(table));
  result.final_bytes = TensorBytes(final_params);

  for (const auto& p : proxies) {
    const FaultProxyStats st = p->stats();
    result.totals.connections += st.connections;
    result.totals.exchanges += st.exchanges;
    result.totals.refused += st.refused;
    result.totals.cut_requests += st.cut_requests;
    result.totals.corrupted_requests += st.corrupted_requests;
    result.totals.cut_responses += st.cut_responses;
    result.totals.corrupted_responses += st.corrupted_responses;
  }
  return result;
}

TEST(NetTraceTest, SameSeedFaultedRunsStayBitIdenticalWithTracingOn) {
  const SeededRunResult a = RunSeededFaultedOps("net_trace_ident_a");
  const SeededRunResult b = RunSeededFaultedOps("net_trace_ident_b");

  // Same per-op outcomes, same final parameter bytes, same fault schedule:
  // span ids are fresh random draws each run, so any id or trace-buffer
  // state leaking into transport decisions would break this.
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.final_bytes, b.final_bytes);
  EXPECT_EQ(a.totals.connections, b.totals.connections);
  EXPECT_EQ(a.totals.exchanges, b.totals.exchanges);
  EXPECT_EQ(a.totals.refused, b.totals.refused);
  EXPECT_EQ(a.totals.cut_requests, b.totals.cut_requests);
  EXPECT_EQ(a.totals.corrupted_requests, b.totals.corrupted_requests);
  EXPECT_EQ(a.totals.cut_responses, b.totals.cut_responses);
  EXPECT_EQ(a.totals.corrupted_responses, b.totals.corrupted_responses);
}

}  // namespace
}  // namespace net
}  // namespace ps
}  // namespace mamdr

// Stress / soak tier for the pooled networked parameter server.
//
// Three properties the fast matrices in net_ps_test can't establish:
//
//   1. Concurrency soundness: N client threads hammering pooled,
//      pipelined pull/push against M shards (each serving connections on a
//      worker pool) leave the parameters scalar-exact — every push lands
//      exactly once, under TSan and lockdep.
//   2. No head-of-line blocking: a peer stalled mid-frame occupies one
//      worker until the kernel read deadline kills it, and a concurrent
//      fast client's RPC latency never approaches that deadline.
//   3. Prompt shutdown: Stop() under live load (idle pooled connections,
//      a mid-frame straggler, deadlines set far in the future) returns in
//      milliseconds, not deadlines — the event-driven shutdown path
//      (self-pipe poller wakeup + shutdown of every open session fd), not
//      a poll cycle or a timeout expiry.
//   4. Capacity: more idle pooled clients than a shard has worker threads
//      neither delay a fresh client nor lose their connections.
//
// Determinism note: everything here asserts on *sums* and *statuses*, never
// on interleavings, so the suite is load-tolerant by construction; all
// latency thresholds sit at least 2x away from both the healthy and the
// broken regime.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net.h"
#include "common/retry.h"
#include "lockdep_guard.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_directory.h"
#include "ps/net/shard_group.h"
#include "ps/net/shard_server.h"

// The stress suite is the lockdep workout for the new concurrency layers
// (pool, shard worker pool, proxy sessions ride along in net_ps_test).
MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace ps {
namespace net {
namespace {

namespace cnet = ::mamdr::net;

/// Layout big enough to spread rows across four shards: two dense tensors
/// and one 32-row embedding table.
std::vector<Tensor> StressParams() {
  return {Tensor({4, 8}, 1.0f), Tensor({32, 4}, 2.0f), Tensor({5}, 0.5f)};
}
std::vector<bool> StressIsEmb() { return {false, true, false}; }

RetryConfig FastRetry(int attempts = 4) {
  RetryConfig r;
  r.max_attempts = attempts;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

NetPsClientConfig StressClientConfig(int num_shards) {
  NetPsClientConfig cc;
  cc.num_shards = num_shards;
  cc.retry = FastRetry();
  // Generous: the deadline must never fire under sanitizer slowdowns, or a
  // cut would turn an exact-sum assertion into a double-apply.
  cc.rpc_deadline_us = 30'000'000;
  return cc;
}

/// The client's ping-latency histogram (global registry; created by the
/// first NetPsClient, fetched here with identical registration arguments).
obs::Histogram* PingHistogram() {
  return obs::Registry::Global().histogram(
      "ps.net.client.rpc_us{op=\"ping\"}",
      obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
      obs::Stability::kRuntime);
}

// ---------------------------------------------------------------------------
// 1. Concurrent pooled clients, exact convergence.

TEST(NetStressTest, ConcurrentPooledClientsConvergeExactly) {
  constexpr int kShards = 4;
  constexpr int kClients = 4;
  constexpr int kOps = 20;

  ShardGroupConfig gc;
  gc.num_shards = kShards;
  gc.num_workers = 4;
  ShardGroup group(gc, StressParams(), StressIsEmb());
  ASSERT_TRUE(group.Start().ok());

  std::vector<int64_t> all_rows;
  for (int64_t r = 0; r < 32; ++r) all_rows.push_back(r);

  // Every client pushes integer-valued deltas with beta=1, so the final
  // values are small-integer sums — exact in float regardless of the
  // apply order across threads.
  std::atomic<int> failures{0};
  auto worker = [&](int id) {
    NetPsClientConfig cc = StressClientConfig(kShards);
    cc.retry_seed = 100 * static_cast<uint64_t>(id + 1);
    NetPsClient client(cc, group.directory(), StressParams(), StressIsEmb());
    const Tensor row_delta({32, 4}, 1.0f);
    std::vector<Tensor> dense_delta{Tensor({4, 8}, 1.0f), Tensor(),
                                    Tensor({5}, 1.0f)};
    for (int i = 0; i < kOps; ++i) {
      if (!client.PushDenseDelta(dense_delta, 1.0f).ok() ||
          !client.PushRowDeltas(1, all_rows, row_delta, 1.0f).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (i % 4 == 0) {
        std::vector<Tensor> out{Tensor({4, 8}), Tensor({32, 4}), Tensor({5})};
        if (!client.PullDense(&out).ok() || !client.Ping(i % kShards).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Pooling must actually engage: far more ops than dials. Each op fans
    // out to up to kShards connections, so >= one reuse per op is a loose
    // floor; poisoning/staleness would mean transport errors on a clean
    // loopback network.
    const ConnectionPool::Stats ps = client.pool_stats();
    EXPECT_GE(ps.reuses, static_cast<uint64_t>(kOps)) << "client " << id;
    EXPECT_EQ(ps.poisoned, 0u) << "client " << id;
    EXPECT_EQ(ps.stale_drops, 0u) << "client " << id;
    EXPECT_LE(ps.dials, static_cast<uint64_t>(kShards)) << "client " << id;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every push landed exactly once: initial + kClients*kOps, scalar-exact.
  NetPsClient verifier(StressClientConfig(kShards), group.directory(),
                       StressParams(), StressIsEmb());
  const auto snap = verifier.Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const float pushed = static_cast<float>(kClients * kOps);
  for (int64_t k = 0; k < snap.value()[0].size(); ++k) {
    ASSERT_EQ(snap.value()[0].at(k), 1.0f + pushed) << "dense elem " << k;
  }
  for (int64_t k = 0; k < snap.value()[2].size(); ++k) {
    ASSERT_EQ(snap.value()[2].at(k), 0.5f + pushed) << "bias elem " << k;
  }
  for (int64_t r = 0; r < 32; ++r) {
    for (int64_t d = 0; d < 4; ++d) {
      ASSERT_EQ(snap.value()[1].at(r, d), 2.0f + pushed)
          << "row " << r << " dim " << d;
    }
  }

  // The servers saw only well-formed traffic.
  uint64_t requests = 0;
  for (int s = 0; s < kShards; ++s) {
    const ShardStats st = group.shard_for_test(s)->stats();
    requests += st.requests;
    EXPECT_EQ(st.bad_requests, 0u) << "shard " << s;
  }
  EXPECT_GT(requests, static_cast<uint64_t>(kClients * kOps));
}

// ---------------------------------------------------------------------------
// 2. Head-of-line regression: a stalled peer must not slow a fast client.

TEST(NetStressTest, StalledPeerDoesNotDelayFastClient) {
  constexpr int64_t kDeadlineUs = 1'500'000;
  constexpr int kPings = 10;

  ShardGroupConfig gc;
  gc.num_shards = 1;
  gc.num_workers = 2;  // one worker eats the stall, one keeps serving
  gc.read_deadline_us = kDeadlineUs;
  ShardGroup group(gc, StressParams(), StressIsEmb());
  ASSERT_TRUE(group.Start().ok());

  // A raw peer that sends half a frame header and goes silent: the worker
  // serving it blocks in ReadFrame until the kernel read deadline fires.
  const Result<int> raw = cnet::ConnectLoopback(group.port(0));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  cnet::ScopedFd stalled(raw.value());
  const std::string frame = cnet::EncodeFrame(std::string(1, '\x01'));
  ASSERT_TRUE(cnet::SendAll(stalled.get(), frame.data(), 6).ok());

  NetPsClient client(StressClientConfig(1), group.directory(), StressParams(),
                     StressIsEmb());
  const obs::Histogram::Snapshot before = PingHistogram()->snapshot();

  // Were the server serial, the first ping would wait out the whole
  // deadline behind the stalled connection (>= kDeadlineUs); concurrent
  // workers keep it orders of magnitude faster. Thresholds sit at half the
  // deadline so neither sanitizer slowdowns nor a genuine stall can land
  // in the ambiguous middle.
  int64_t max_ping_us = 0;
  for (int i = 0; i < kPings; ++i) {
    const int64_t t0 = obs::MonotonicMicros();
    ASSERT_TRUE(client.Ping(0).ok()) << "ping " << i;
    max_ping_us = std::max(max_ping_us, obs::MonotonicMicros() - t0);
  }
  EXPECT_LT(max_ping_us, kDeadlineUs / 2);

  // Same verdict from the client's own RPC-latency histogram: kPings new
  // observations whose total stays far under one deadline.
  const obs::Histogram::Snapshot after = PingHistogram()->snapshot();
  EXPECT_EQ(after.count - before.count, static_cast<uint64_t>(kPings));
  EXPECT_LT(after.sum - before.sum, static_cast<double>(kDeadlineUs) / 2);

  // The deadline then reclaims the stalled worker: the server cuts the
  // connection (a mid-frame stream failure, so it counts as bad) and the
  // raw peer sees EOF.
  ASSERT_TRUE(cnet::SetIoTimeout(stalled.get(), 200'000).ok());
  char buf[16];
  const int64_t give_up = obs::MonotonicMicros() + 4 * kDeadlineUs;
  for (;;) {
    const Result<size_t> n = cnet::RecvSome(stalled.get(), buf, sizeof(buf));
    if (n.ok() && n.value() == 0) break;  // EOF: server closed us
    ASSERT_LT(obs::MonotonicMicros(), give_up) << "server never cut stall";
  }
  EXPECT_GE(group.shard_for_test(0)->stats().bad_requests, 1u);
}

// ---------------------------------------------------------------------------
// 3. Stop() is event-driven: prompt under load, never waits out a deadline.

TEST(NetStressTest, StopReturnsPromptlyUnderLoad) {
  constexpr int kShards = 2;

  ShardGroupConfig gc;
  gc.num_shards = kShards;
  gc.num_workers = 2;
  gc.read_deadline_us = 10'000'000;  // Stop must not wait for this
  ShardGroup group(gc, StressParams(), StressIsEmb());
  ASSERT_TRUE(group.Start().ok());

  // Live load at shutdown time: pooled client connections parked in each
  // shard's blocking read, plus one mid-frame straggler per shard.
  NetPsClient client(StressClientConfig(kShards), group.directory(),
                     StressParams(), StressIsEmb());
  for (int s = 0; s < kShards; ++s) ASSERT_TRUE(client.Ping(s).ok());
  std::vector<cnet::ScopedFd> stragglers;
  const std::string frame = cnet::EncodeFrame("x");
  for (int s = 0; s < kShards; ++s) {
    const Result<int> raw = cnet::ConnectLoopback(group.port(s));
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    stragglers.emplace_back(raw.value());
    ASSERT_TRUE(
        cnet::SendAll(stragglers.back().get(), frame.data(), 5).ok());
  }

  // Stop = accept-thread wakeup via the listener self-pipe + shutdown of
  // every registered worker fd. Milliseconds in practice; the 2s bound is
  // sanitizer headroom while staying 5x under the read deadline (and miles
  // under the old 50ms-poll worst case times the fd count).
  const int64_t t0 = obs::MonotonicMicros();
  group.Stop();
  const int64_t stop_us = obs::MonotonicMicros() - t0;
  EXPECT_LT(stop_us, 2'000'000) << "Stop took " << stop_us << "us";

  // The group is down, not wedged: ops now fail with the retryable code.
  EXPECT_EQ(client.Ping(0).code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// 4. Capacity: idle pooled sessions do not pin shard workers.

TEST(NetStressTest, IdlePooledClientsDoNotPinShardWorkers) {
  ShardGroupConfig gc;  // default read_deadline_us
  gc.num_shards = 1;
  gc.num_workers = 2;
  ShardGroup group(gc, StressParams(), StressIsEmb());
  ASSERT_TRUE(group.Start().ok());

  // More pooled clients than the shard has worker threads, each doing one
  // op and then leaving its connection open and idle. With at least
  // num_workers clients beyond the first num_workers, a server that tied
  // a thread to each connection would have every worker pinned by an idle
  // session when the fresh client arrives.
  const int num_idle = gc.num_workers + 2;
  std::vector<std::unique_ptr<NetPsClient>> idle;
  for (int i = 0; i < num_idle; ++i) {
    idle.push_back(std::make_unique<NetPsClient>(
        StressClientConfig(1), group.directory(), StressParams(),
        StressIsEmb()));
    ASSERT_TRUE(idle.back()->Ping(0).ok()) << "idle client " << i;
  }

  // A fresh client's request is picked up as soon as it is readable. Were
  // idle sessions pinning the workers, it would wait in the queue until an
  // idle session hit the read deadline.
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram* queue_wait = reg.histogram(
      "ps.net.shard.queue_wait_us{shard=\"0\"}",
      obs::Histogram::ExponentialBounds(10.0, 2.0, 20),
      obs::Stability::kRuntime);
  const obs::Histogram::Snapshot before = queue_wait->snapshot();
  NetPsClient fresh(StressClientConfig(1), group.directory(), StressParams(),
                    StressIsEmb());
  ASSERT_TRUE(fresh.Ping(0).ok());
  const obs::Histogram::Snapshot after = queue_wait->snapshot();
  EXPECT_GE(after.count - before.count, 1u);
  EXPECT_LT(after.sum - before.sum,
            static_cast<double>(gc.read_deadline_us) / 4);
  EXPECT_EQ(reg.gauge("ps.net.shard.active_sessions{shard=\"0\"}",
                      obs::Stability::kRuntime)
                ->value(),
            static_cast<double>(num_idle + 1));

  // Every idle session is still open: each client's next op reuses its
  // pooled connection, with neither a redial nor a fresh dial.
  obs::Counter* redials =
      reg.counter("ps.net.client.redials", obs::Stability::kRuntime);
  obs::Counter* dials =
      reg.counter("ps.net.client.pool.dials", obs::Stability::kRuntime);
  const uint64_t redials_before = redials->value();
  const uint64_t dials_before = dials->value();
  for (int i = 0; i < num_idle; ++i) {
    EXPECT_TRUE(idle[static_cast<size_t>(i)]->Ping(0).ok())
        << "idle client " << i;
  }
  EXPECT_EQ(redials->value(), redials_before);
  EXPECT_EQ(dials->value(), dials_before);
}

}  // namespace
}  // namespace net
}  // namespace ps
}  // namespace mamdr

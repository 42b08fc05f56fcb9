// Networked chaos training: the full PS-Worker runtime against the sharded
// parameter server, with every network fault class live at once.
//
// Workers reach a 4-shard ShardGroup through per-shard FaultProxies that
// refuse connections, cut and corrupt frames in both directions, and inject
// latency spikes; a seeded schedule kills a shard mid-epoch and respawns it
// from its last checkpoint a few ops later. Everything is deterministic:
// proxies draw their damage from seeded Rngs per connection, the kill/
// respawn points are a pure function of the serialized worker-op counter
// (pool_threads=1), and the transport retry schedules are seeded — so two
// runs of the same configuration are bit-identical, faults included.
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/random.h"
#include "lockdep_guard.h"
#include "models/registry.h"
#include "optim/param_snapshot.h"
#include "ps/distributed_mamdr.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_directory.h"
#include "ps/net/shard_group.h"
#include "test_util.h"
#include "testing/fault_proxy.h"

MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace ps {
namespace {

namespace pnet = ::mamdr::ps::net;

/// Worker-level op retry (same schedule the in-process chaos tests use).
RetryConfig WorkerRetry() {
  RetryConfig r;
  r.max_attempts = 6;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

/// Transport-level retry wrapped around every shard RPC.
RetryConfig TransportRetry() {
  RetryConfig r;
  r.max_attempts = 4;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

/// Forwards every op to `inner`, calling `before_op` first — with no locks
/// held and before any network I/O, so a harness can kill and respawn
/// shards at deterministic points in the worker's op sequence.
class OpHookClient : public PsClient {
 public:
  OpHookClient(std::unique_ptr<PsClient> inner,
               std::function<void()> before_op)
      : inner_(std::move(inner)), before_op_(std::move(before_op)) {}

  int64_t num_params() const override { return inner_->num_params(); }
  bool is_embedding(int64_t idx) const override {
    return inner_->is_embedding(idx);
  }
  Status PullDense(std::vector<Tensor>* out) override {
    before_op_();
    return inner_->PullDense(out);
  }
  Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                  Tensor* into) override {
    before_op_();
    return inner_->PullRows(idx, rows, into);
  }
  Status PullFullTable(int64_t idx, Tensor* into) override {
    before_op_();
    return inner_->PullFullTable(idx, into);
  }
  Status PushDenseDelta(const std::vector<Tensor>& delta,
                        float beta) override {
    before_op_();
    return inner_->PushDenseDelta(delta, beta);
  }
  Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                       const Tensor& delta, float beta) override {
    before_op_();
    return inner_->PushRowDeltas(idx, rows, delta, beta);
  }
  Result<std::vector<Tensor>> Snapshot() override {
    before_op_();
    return inner_->Snapshot();
  }
  Status Restore(const std::vector<Tensor>& params) override {
    before_op_();
    return inner_->Restore(params);
  }

 private:
  std::unique_ptr<PsClient> inner_;
  std::function<void()> before_op_;
};

/// The sharded deployment one training run talks to: a 4-shard group with
/// per-shard checkpoints, reached through per-shard fault proxies, plus the
/// seeded kill/respawn schedule driven by the worker-op counter.
class NetHarness {
 public:
  static constexpr int kShards = 4;
  // Kill cycle, in worker PS-ops: checkpoint, kill five ops later (losing
  // the victim's pushes in between — a real but bounded loss window),
  // respawn four ops after that, close enough that a failing op's own
  // worker-level retries (6 attempts) carry it past the respawn point.
  static constexpr uint64_t kPeriod = 80;
  static constexpr uint64_t kCheckpointAt = 10;
  static constexpr uint64_t kKillAt = 15;
  static constexpr uint64_t kRespawnAt = 19;

  /// `tmp_prefix` must be unique among live harnesses — ScopedTempDir
  /// derives its path from (prefix, pid, test name), and a colliding
  /// constructor wipes the other harness's checkpoint directory.
  NetHarness(const std::vector<Tensor>& layout,
             const std::vector<bool>& is_embedding, bool network_faults,
             bool shard_crashes, const std::string& tmp_prefix)
      : tmp_(tmp_prefix),
        layout_(layout),
        is_embedding_(is_embedding),
        shard_crashes_(shard_crashes) {
    pnet::ShardGroupConfig gc;
    gc.num_shards = kShards;
    gc.checkpoint_dir = tmp_.str();
    group_ = std::make_unique<pnet::ShardGroup>(gc, layout_, is_embedding_);
    MAMDR_CHECK(group_->Start().ok());
    for (int s = 0; s < kShards; ++s) {
      pnet::FaultProxyConfig pc;
      pc.seed = 9000 + static_cast<uint64_t>(s);
      if (network_faults) {
        // Request-side damage is semantically free (the push is never
        // applied; the client just retries), so it can be frequent.
        // Response-side damage double-applies the push it acknowledges —
        // keep it rare enough that the accumulated noise stays inside the
        // 0.01-AUC acceptance band, but nonzero so the class is exercised.
        pc.refuse_prob = 0.03;
        pc.cut_request_prob = 0.02;
        pc.corrupt_request_prob = 0.03;
        pc.cut_response_prob = 0.01;
        pc.corrupt_response_prob = 0.015;
        pc.latency_prob = 0.05;
        pc.latency_us = 200;
      }
      auto proxy = std::make_unique<pnet::FaultProxy>(
          pc, [this, s] { return group_->port(s); });
      MAMDR_CHECK(proxy->Start().ok());
      proxy_ports_.SetPort(s, proxy->port());
      proxies_.push_back(std::move(proxy));
    }
  }

  /// PsClient factory for DistributedConfig: every client routes through
  /// the proxies; worker clients are wrapped in an OpHookClient that drives
  /// the kill/respawn schedule, the admin client (id -1) never is.
  std::function<std::unique_ptr<PsClient>(int64_t)> Factory() {
    return [this](int64_t worker_id) -> std::unique_ptr<PsClient> {
      pnet::NetPsClientConfig cc;
      cc.num_shards = kShards;
      cc.retry = TransportRetry();
      cc.retry_seed = 1000 * static_cast<uint64_t>(worker_id + 2);
      cc.rpc_deadline_us = 5'000'000;
      std::unique_ptr<PsClient> client = std::make_unique<pnet::NetPsClient>(
          cc, &proxy_ports_, layout_, is_embedding_);
      if (worker_id >= 0 && shard_crashes_) {
        client = std::make_unique<OpHookClient>(std::move(client),
                                                [this] { OnWorkerOp(); });
      }
      return client;
    };
  }

  /// Bring any still-dead shard back (a run can end inside a kill window);
  /// deterministic, since the op counter is.
  void RespawnAllDown() {
    for (int s = 0; s < kShards; ++s) {
      if (!group_->up(s)) {
        MAMDR_CHECK(group_->RespawnShard(s).ok());
        ++respawns_;
      }
    }
  }

  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  uint64_t kills() const { return kills_; }
  uint64_t respawns() const { return respawns_; }

  pnet::FaultProxyStats TotalProxyStats() const {
    pnet::FaultProxyStats total;
    for (const auto& p : proxies_) {
      const pnet::FaultProxyStats st = p->stats();
      total.connections += st.connections;
      total.refused += st.refused;
      total.cut_requests += st.cut_requests;
      total.corrupted_requests += st.corrupted_requests;
      total.cut_responses += st.cut_responses;
      total.corrupted_responses += st.corrupted_responses;
      total.delayed += st.delayed;
      total.relay_errors += st.relay_errors;
    }
    return total;
  }

 private:
  /// Runs on the (serialized) worker thread at the top of every PS op, so
  /// the kill/respawn points are a pure function of the op sequence. A
  /// worker op that fails against the dead shard re-enters here on each
  /// retry, advancing the counter toward the respawn point.
  void OnWorkerOp() {
    const uint64_t n = ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t phase = n % kPeriod;
    const int victim = static_cast<int>((n / kPeriod) % kShards);
    if (phase == kCheckpointAt) {
      MAMDR_CHECK(group_->CheckpointAll().ok());
    } else if (phase == kKillAt) {
      if (group_->up(victim)) {
        MAMDR_CHECK(group_->KillShard(victim).ok());
        ++kills_;
      }
    } else if (phase == kRespawnAt) {
      if (!group_->up(victim)) {
        MAMDR_CHECK(group_->RespawnShard(victim).ok());
        ++respawns_;
      }
    }
  }

  mamdr::testing::ScopedTempDir tmp_;
  std::vector<Tensor> layout_;
  std::vector<bool> is_embedding_;
  const bool shard_crashes_;
  std::unique_ptr<pnet::ShardGroup> group_;
  pnet::ShardDirectory proxy_ports_{kShards};
  std::vector<std::unique_ptr<pnet::FaultProxy>> proxies_;
  std::atomic<uint64_t> ops_{0};
  uint64_t kills_ = 0;
  uint64_t respawns_ = 0;
};

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(4, 150, 17);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    // The shard layout and initial values must match what DistributedMamdr
    // derives from its reference replica — same model, same seed.
    Rng rng(mc_.seed);
    auto model = models::CreateModel("MLP", mc_, &rng);
    MAMDR_CHECK(model.ok()) << model.status().ToString();
    MakeDefaultRowExtractor(model.value().get(), mc_, &is_embedding_);
    layout_ = optim::Snapshot(model.value()->Parameters());
  }

  /// Serial-worker config (bit-deterministic), same knobs as chaos_test.
  DistributedConfig BaseConfig(int64_t epochs = 5) {
    DistributedConfig dc;
    dc.num_workers = 2;
    dc.use_embedding_cache = true;
    dc.pool_threads = 1;
    dc.retry = WorkerRetry();
    dc.train.epochs = epochs;
    dc.train.batch_size = 64;
    dc.train.inner_lr = 2e-3f;
    dc.train.outer_lr = 0.5f;
    dc.train.seed = 5;
    return dc;
  }

  /// One full training run against a NetHarness. Returns the trained
  /// orchestrator with every shard respawned (evaluation needs them up).
  std::unique_ptr<DistributedMamdr> RunNet(NetHarness* harness,
                                           int64_t epochs = 5) {
    DistributedConfig dc = BaseConfig(epochs);
    dc.ps_client_factory = harness->Factory();
    auto dist = std::make_unique<DistributedMamdr>(mc_, &ds_, dc);
    const Status s = dist->Train();
    EXPECT_TRUE(s.ok()) << s.ToString();
    harness->RespawnAllDown();
    return dist;
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
  std::vector<Tensor> layout_;
  std::vector<bool> is_embedding_;
};

TEST_F(NetChaosTest, FaultFreeNetBackendMatchesDirectQuality) {
  // The networked backend with clean proxies and no shard crashes is just a
  // slower wire to the same training semantics: every shard applies Eq. 3
  // through the same ParameterServer the in-process backend uses, so each
  // domain's test AUC matches bit for bit.
  DistributedMamdr direct(mc_, &ds_, BaseConfig());
  ASSERT_TRUE(direct.Train().ok());
  const std::vector<double> direct_aucs = direct.EvaluateTest();
  EXPECT_GT(direct.AverageTestAuc(), 0.52);

  NetHarness harness(layout_, is_embedding_, /*network_faults=*/false,
                     /*shard_crashes=*/false, "net_chaos_clean");
  auto net = RunNet(&harness);
  const std::vector<double> net_aucs = net->EvaluateTest();
  ASSERT_EQ(net_aucs.size(), direct_aucs.size());
  for (size_t d = 0; d < direct_aucs.size(); ++d) {
    EXPECT_EQ(net_aucs[d], direct_aucs[d]) << "domain " << d;
  }
  EXPECT_EQ(harness.TotalProxyStats().relay_errors, 0u);
}

TEST_F(NetChaosTest, ShardKillsAloneRecoverFromCheckpoints) {
  // Shard crashes with a clean network: isolates the kill/respawn/restore
  // path. Every kill loses the victim's pushes since the last checkpoint —
  // the dropped-push loss class the training loop already tolerates.
  DistributedMamdr direct(mc_, &ds_, BaseConfig());
  ASSERT_TRUE(direct.Train().ok());

  NetHarness harness(layout_, is_embedding_, /*network_faults=*/false,
                     /*shard_crashes=*/true, "net_chaos_kills");
  auto net = RunNet(&harness);
  EXPECT_GE(harness.kills(), 2u);
  EXPECT_EQ(harness.kills(), harness.respawns());
  EXPECT_NEAR(net->AverageTestAuc(), direct.AverageTestAuc(), 0.01);
}

TEST_F(NetChaosTest, FullChaosConvergesAndIsReproducible) {
  // The acceptance run: shard crashes + refused connections + cut frames +
  // corrupted bytes in both directions + latency spikes, all at once.
  DistributedMamdr direct(mc_, &ds_, BaseConfig());
  ASSERT_TRUE(direct.Train().ok());
  const double direct_auc = direct.AverageTestAuc();

  auto run = [&](const std::string& tmp_prefix) {
    auto harness = std::make_unique<NetHarness>(
        layout_, is_embedding_, /*network_faults=*/true,
        /*shard_crashes=*/true, tmp_prefix);
    auto dist = RunNet(harness.get());
    return std::make_pair(std::move(harness), std::move(dist));
  };
  auto [harness_a, net_a] = run("net_chaos_full_a");

  // The schedule actually exercised every fault class...
  const pnet::FaultProxyStats st = harness_a->TotalProxyStats();
  EXPECT_GT(st.refused, 0u);
  EXPECT_GT(st.corrupted_requests, 0u);
  EXPECT_GT(st.corrupted_responses, 0u);
  EXPECT_GT(st.cut_requests + st.cut_responses, 0u);
  EXPECT_GT(st.delayed, 0u);
  EXPECT_GE(harness_a->kills(), 2u);
  EXPECT_EQ(harness_a->kills(), harness_a->respawns());

  // ...and the run still converges to the fault-free direct quality, with
  // no worker ever aborted.
  const double chaos_auc = net_a->AverageTestAuc();
  EXPECT_NEAR(chaos_auc, direct_auc, 0.01);
  EXPECT_GT(chaos_auc, 0.52);

  // Same seeds, second run: bit-identical per-domain AUCs, op counts, and
  // fault schedules.
  auto [harness_b, net_b] = run("net_chaos_full_b");
  // Capture at the same point as `st` (right after training) — evaluation
  // adds more proxied connections, so a later read wouldn't be comparable.
  const pnet::FaultProxyStats st_b = harness_b->TotalProxyStats();
  const auto aucs_a = net_a->EvaluateTest();
  const auto aucs_b = net_b->EvaluateTest();
  ASSERT_EQ(aucs_a.size(), aucs_b.size());
  for (size_t d = 0; d < aucs_a.size(); ++d) {
    EXPECT_EQ(aucs_a[d], aucs_b[d]) << "domain " << d;
  }
  EXPECT_EQ(harness_a->ops(), harness_b->ops());
  EXPECT_EQ(harness_a->kills(), harness_b->kills());
  EXPECT_EQ(st.connections, st_b.connections);
  EXPECT_EQ(st.refused, st_b.refused);
  EXPECT_EQ(st.corrupted_requests, st_b.corrupted_requests);
  EXPECT_EQ(st.corrupted_responses, st_b.corrupted_responses);
  EXPECT_EQ(st.cut_requests, st_b.cut_requests);
  EXPECT_EQ(st.cut_responses, st_b.cut_responses);
  EXPECT_EQ(st.delayed, st_b.delayed);
}

}  // namespace
}  // namespace ps
}  // namespace mamdr

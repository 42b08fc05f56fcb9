// Deterministic chaos tests for the fault-tolerant PS-Worker runtime.
//
// DistributedMamdr knows nothing of faults: each chaos run builds its own
// ParameterServer, hands the workers FaultInjector-wrapped clients through
// DistributedConfig::ps_client_factory, and arms the scheduled crashes
// around each TrainEpoch(). Everything is seeded: the fault schedule is a
// pure function of (FaultConfig.seed, worker id, op sequence) and the chaos
// runs train with pool_threads=1 so PS push order is serial — two runs of
// the same seed are bit-identical, crashes included.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "lockdep_guard.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "optim/param_snapshot.h"
#include "ps/distributed_mamdr.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "testing/fault_injector.h"

// Chaos runs double as the lockdep clean-run suite: in instrumented builds
// every test in this binary must finish with zero lock-order violations.
MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace ps {
namespace {

namespace fs = std::filesystem;

RetryConfig TestRetry() {
  RetryConfig r;
  r.max_attempts = 6;
  r.initial_backoff_us = 1;  // keep chaos tests fast
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

std::unique_ptr<ParameterServer> TinyServer() {
  std::vector<Tensor> params{Tensor({2, 2}, 1.0f), Tensor({4, 3}, 2.0f)};
  return std::make_unique<ParameterServer>(params,
                                           std::vector<bool>{false, true});
}

// ---------------------------------------------------------------------------
// FaultInjector unit tests.

TEST(FaultInjectorTest, NoFaultsForwardsEverything) {
  auto server = TinyServer();
  FaultInjector client(std::make_unique<DirectPsClient>(server.get()),
                       FaultConfig{});
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({4, 3})};
  ASSERT_TRUE(client.PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
  Tensor table({4, 3});
  ASSERT_TRUE(client.PullRows(1, {2}, &table).ok());
  EXPECT_FLOAT_EQ(table.at(2, 0), 2.0f);
  EXPECT_EQ(client.stats().ops, 2u);
  EXPECT_EQ(client.stats().injected_unavailable, 0u);
}

TEST(FaultInjectorTest, SameSeedSameOpSequenceSameFaults) {
  auto run = [](uint64_t seed) {
    auto server = TinyServer();
    FaultConfig fc;
    fc.seed = seed;
    fc.unavailable_prob = 0.3;
    fc.drop_push_prob = 0.2;
    FaultInjector client(std::make_unique<DirectPsClient>(server.get()), fc);
    std::vector<StatusCode> codes;
    std::vector<Tensor> out{Tensor({2, 2}), Tensor({4, 3})};
    std::vector<Tensor> delta{Tensor({2, 2}, 0.1f), Tensor({4, 3})};
    for (int i = 0; i < 50; ++i) {
      codes.push_back(client.PullDense(&out).code());
      codes.push_back(client.PushDenseDelta(delta, 0.1f).code());
    }
    return std::make_pair(codes, client.stats());
  };
  const auto [codes_a, stats_a] = run(7);
  const auto [codes_b, stats_b] = run(7);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(stats_a.injected_unavailable, stats_b.injected_unavailable);
  EXPECT_EQ(stats_a.dropped_pushes, stats_b.dropped_pushes);
  EXPECT_GT(stats_a.injected_unavailable, 0u);
  EXPECT_GT(stats_a.dropped_pushes, 0u);
  const auto [codes_c, stats_c] = run(8);
  EXPECT_NE(codes_a, codes_c);  // a different seed shifts the schedule
}

TEST(FaultInjectorTest, ArmedCrashAbortsExactlyTheArmedOp) {
  auto server = TinyServer();
  FaultInjector client(std::make_unique<DirectPsClient>(server.get()),
                       FaultConfig{});
  client.ArmCrashAfterOps(3);
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({4, 3})};
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_EQ(client.PullDense(&out).code(), StatusCode::kAborted);
  EXPECT_EQ(client.stats().crashes, 1u);
  // A crash aborts one op: the respawned worker's next op goes through.
  EXPECT_TRUE(client.PullDense(&out).ok());

  // A second armed crash fires as many ops after the first one.
  client.ArmCrashAfterOps(2, /*crashes=*/2);
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_EQ(client.PullDense(&out).code(), StatusCode::kAborted);
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_EQ(client.PushDenseDelta({Tensor(), Tensor()}, 0.1f).code(),
            StatusCode::kAborted);
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_EQ(client.stats().crashes, 3u);

  // Disarm drops a crash that has not fired yet.
  client.ArmCrashAfterOps(1);
  client.Disarm();
  EXPECT_TRUE(client.PullDense(&out).ok());
  EXPECT_EQ(client.stats().crashes, 3u);
}

TEST(FaultInjectorTest, DroppedPushIsAcknowledgedButNotApplied) {
  auto server = TinyServer();
  FaultConfig fc;
  fc.drop_push_prob = 1.0;  // every push silently lost
  FaultInjector client(std::make_unique<DirectPsClient>(server.get()), fc);
  std::vector<Tensor> delta{Tensor({2, 2}, 4.0f), Tensor({4, 3})};
  ASSERT_TRUE(client.PushDenseDelta(delta, 1.0f).ok());  // "succeeds"
  EXPECT_EQ(client.stats().dropped_pushes, 1u);
  auto snap = server->SnapshotAll();
  EXPECT_FLOAT_EQ(snap[0].at(0), 1.0f);  // value unchanged
  // Pulls are never dropped.
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({4, 3})};
  ASSERT_TRUE(client.PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
}

// ---------------------------------------------------------------------------
// Chaos training: the full runtime under a seeded fault schedule.

/// The fault schedule of one chaos run.
struct ChaosPlan {
  FaultConfig faults;
  /// Per epoch, crash the round-robin victim worker (epoch mod m) after
  /// this many of its PS ops. 0 = no scheduled crashes.
  int64_t crash_after_ops = 0;
  /// Epoch at which the victim's respawn crashes too (as many ops after
  /// the first crash), forcing the domain-reassignment path. -1 = never.
  int64_t crash_respawn_epoch = -1;
};

/// One chaos run's in-process backend: its own ParameterServer, built from
/// the same-seed layout DistributedMamdr derives from its reference
/// replica, and one FaultInjector per worker, minted by Factory().
class ChaosBackend {
 public:
  ChaosBackend(const std::vector<Tensor>& layout,
               const std::vector<bool>& is_embedding, ChaosPlan plan)
      : server_(layout, is_embedding), plan_(plan) {}

  /// Worker w's client is a FaultInjector over a DirectPsClient, seeded
  /// with the plan seed mixed with w so every worker sees an independent,
  /// reproducible fault stream; the admin client (id -1) is never faulted.
  std::function<std::unique_ptr<PsClient>(int64_t)> Factory() {
    return [this](int64_t worker_id) -> std::unique_ptr<PsClient> {
      auto direct = std::make_unique<DirectPsClient>(&server_);
      if (worker_id < 0) return direct;
      FaultConfig fc = plan_.faults;
      fc.seed += static_cast<uint64_t>(worker_id) * 2654435761ull;
      auto injector = std::make_unique<FaultInjector>(std::move(direct), fc);
      const size_t w = static_cast<size_t>(worker_id);
      if (injectors_.size() <= w) injectors_.resize(w + 1, nullptr);
      injectors_[w] = injector.get();
      return injector;
    };
  }

  /// Sync training to `epochs`, as DistributedMamdr::Train() runs it (with
  /// `resume`, from the latest checkpoint), arming the round-robin victim's
  /// crash before each TrainEpoch() and disarming every injector after it.
  Status Train(DistributedMamdr* dist, int64_t epochs, bool resume = false) {
    if (resume) {
      const auto resumed = dist->RestoreFromCheckpoint();
      if (!resumed.ok() && resumed.status().code() != StatusCode::kNotFound) {
        return resumed.status();
      }
    }
    while (dist->epochs_run() < epochs) {
      const int64_t epoch = dist->epochs_run();
      if (plan_.crash_after_ops > 0) {
        injector(epoch % dist->num_workers())
            ->ArmCrashAfterOps(plan_.crash_after_ops,
                               epoch == plan_.crash_respawn_epoch ? 2 : 1);
      }
      const Status s = dist->TrainEpoch();
      for (FaultInjector* inj : injectors_) inj->Disarm();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  FaultInjector* injector(int64_t w) {
    return injectors_[static_cast<size_t>(w)];
  }
  int64_t num_injectors() const {
    return static_cast<int64_t>(injectors_.size());
  }

 private:
  ParameterServer server_;
  const ChaosPlan plan_;
  std::vector<FaultInjector*> injectors_;  // indexed by worker id
};

/// A chaos run: the backend outlives the orchestrator whose clients
/// point into it (members are destroyed in reverse order).
struct ChaosRun {
  std::unique_ptr<ChaosBackend> backend;
  std::unique_ptr<DistributedMamdr> dist;
};

class ChaosTrainingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(4, 150, 17);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    // The chaos backends' layout and initial values must match what
    // DistributedMamdr derives from its reference replica — same model,
    // same seed.
    Rng rng(mc_.seed);
    auto model = models::CreateModel("MLP", mc_, &rng);
    MAMDR_CHECK(model.ok()) << model.status().ToString();
    MakeDefaultRowExtractor(model.value().get(), mc_, &is_embedding_);
    layout_ = optim::Snapshot(model.value()->Parameters());
  }

  /// Serial-worker config so runs are bit-deterministic.
  DistributedConfig BaseConfig(int64_t epochs = 5) {
    DistributedConfig dc;
    dc.num_workers = 2;
    dc.use_embedding_cache = true;
    dc.pool_threads = 1;
    dc.retry = TestRetry();
    dc.train.epochs = epochs;
    dc.train.batch_size = 64;
    dc.train.inner_lr = 2e-3f;
    dc.train.outer_lr = 0.5f;
    dc.train.seed = 5;
    return dc;
  }

  /// Transient errors + a crash every epoch + occasional dropped pushes.
  static ChaosPlan Chaos() {
    ChaosPlan plan;
    plan.faults.seed = 1234;
    plan.faults.unavailable_prob = 0.05;
    plan.faults.drop_push_prob = 0.05;
    plan.faults.latency_prob = 0.05;
    plan.faults.latency_us = 20;
    plan.crash_after_ops = 9;  // mid-epoch, every epoch
    return plan;
  }

  /// An orchestrator whose workers reach a fresh backend under `plan`.
  ChaosRun MakeRun(DistributedConfig dc, ChaosPlan plan) {
    ChaosRun run;
    run.backend = std::make_unique<ChaosBackend>(layout_, is_embedding_, plan);
    dc.ps_client_factory = run.backend->Factory();
    run.dist = std::make_unique<DistributedMamdr>(mc_, &ds_, std::move(dc));
    return run;
  }

  /// Every worker's fault counters, summed.
  static FaultStats TotalFaults(ChaosBackend* backend) {
    FaultStats total;
    for (int64_t w = 0; w < backend->num_injectors(); ++w) {
      const FaultStats fs = backend->injector(w)->stats();
      total.ops += fs.ops;
      total.injected_unavailable += fs.injected_unavailable;
      total.injected_latency += fs.injected_latency;
      total.dropped_pushes += fs.dropped_pushes;
      total.crashes += fs.crashes;
    }
    return total;
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
  std::vector<Tensor> layout_;
  std::vector<bool> is_embedding_;
};

TEST_F(ChaosTrainingTest, ChaosRunMatchesFaultFreeAucAndIsReproducible) {
  DistributedMamdr clean(mc_, &ds_, BaseConfig());
  ASSERT_TRUE(clean.Train().ok());
  const double clean_auc = clean.AverageTestAuc();
  EXPECT_GT(clean_auc, 0.52);

  auto run_chaos = [&] {
    ChaosRun run = MakeRun(BaseConfig(), Chaos());
    Status s = run.backend->Train(run.dist.get(), 5);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return run;
  };
  ChaosRun chaos_a = run_chaos();

  // The schedule actually exercised every fault class...
  const FaultStats faults_a = TotalFaults(chaos_a.backend.get());
  EXPECT_GT(faults_a.injected_unavailable, 0u);
  EXPECT_GE(faults_a.dropped_pushes, 1u);  // >= one dropped push over the run
  EXPECT_GE(faults_a.crashes, 5u);         // >= one worker crash per epoch
  EXPECT_GE(chaos_a.dist->recovery_stats().failed_epochs, 5);
  EXPECT_GE(chaos_a.dist->recovery_stats().respawns, 5);

  // ...and the model still converges to the fault-free quality.
  const double chaos_auc = chaos_a.dist->AverageTestAuc();
  EXPECT_NEAR(chaos_auc, clean_auc, 0.01);

  // Same seed, second run: bit-identical per-domain AUCs and fault counts.
  ChaosRun chaos_b = run_chaos();
  const auto aucs_a = chaos_a.dist->EvaluateTest();
  const auto aucs_b = chaos_b.dist->EvaluateTest();
  ASSERT_EQ(aucs_a.size(), aucs_b.size());
  for (size_t d = 0; d < aucs_a.size(); ++d) {
    EXPECT_EQ(aucs_a[d], aucs_b[d]) << "domain " << d;
  }
  ASSERT_EQ(chaos_a.backend->num_injectors(), chaos_a.dist->num_workers());
  for (int64_t w = 0; w < chaos_a.dist->num_workers(); ++w) {
    EXPECT_EQ(chaos_a.backend->injector(w)->stats().ops,
              chaos_b.backend->injector(w)->stats().ops);
    EXPECT_EQ(chaos_a.backend->injector(w)->stats().crashes,
              chaos_b.backend->injector(w)->stats().crashes);
  }
  EXPECT_EQ(chaos_a.dist->recovery_stats().respawns,
            chaos_b.dist->recovery_stats().respawns);
}

TEST_F(ChaosTrainingTest, RespawnFailureReassignsDomains) {
  ChaosPlan plan = Chaos();
  plan.crash_respawn_epoch = 1;  // epoch 1's respawn dies too
  ChaosRun run = MakeRun(BaseConfig(), plan);
  Status s = run.backend->Train(run.dist.get(), 5);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(run.dist->recovery_stats().respawn_failures, 1);
  EXPECT_GE(run.dist->recovery_stats().reassigned_epochs, 1);
  // Graceful degradation: the epoch wasn't lost and the model still learns.
  EXPECT_GT(run.dist->AverageTestAuc(), 0.52);
}

TEST_F(ChaosTrainingTest, TransientErrorsAloneAreInvisibleAfterRetry) {
  // With only retryable faults (no crashes, no drops), the retry layer makes
  // the chaos run bit-identical to the fault-free run.
  ChaosPlan plan;
  plan.faults.seed = 77;
  plan.faults.unavailable_prob = 0.2;
  ChaosRun noisy = MakeRun(BaseConfig(), plan);
  ASSERT_TRUE(noisy.backend->Train(noisy.dist.get(), 5).ok());

  DistributedMamdr clean(mc_, &ds_, BaseConfig());
  ASSERT_TRUE(clean.Train().ok());

  EXPECT_GT(TotalFaults(noisy.backend.get()).injected_unavailable, 0u);
  const auto a = noisy.dist->EvaluateTest();
  const auto b = clean.EvaluateTest();
  for (size_t d = 0; d < a.size(); ++d) EXPECT_EQ(a[d], b[d]);
}

TEST_F(ChaosTrainingTest, MetricsCountersMatchInjectorAndRecoveryStats) {
  // The fault/retry/recovery counters are process-global; reset so this
  // test sees only its own run.
  obs::Registry::Global().Reset();

  ChaosRun run = MakeRun(BaseConfig(), Chaos());
  ASSERT_TRUE(run.backend->Train(run.dist.get(), 5).ok());

  const FaultStats faults = TotalFaults(run.backend.get());
  ASSERT_GT(faults.injected_unavailable, 0u);  // the plan injected faults
  ASSERT_GE(faults.crashes, 5u);

  // The ps.fault.* counters mirror the injectors' own accounting exactly.
  obs::Registry& reg = obs::Registry::Global();
  EXPECT_EQ(reg.counter("ps.fault.ops")->value(), faults.ops);
  EXPECT_EQ(reg.counter("ps.fault.injected_unavailable")->value(),
            faults.injected_unavailable);
  EXPECT_EQ(reg.counter("ps.fault.injected_latency")->value(),
            faults.injected_latency);
  EXPECT_EQ(reg.counter("ps.fault.dropped_pushes")->value(),
            faults.dropped_pushes);
  EXPECT_EQ(reg.counter("ps.fault.crashes")->value(), faults.crashes);

  // Every injected unavailability surfaced as exactly one retryable failure
  // inside the retry layer (crashes abort and are not retryable), and the
  // layer never saw more failures than attempts.
  EXPECT_EQ(reg.counter("retry.transient_failures")->value(),
            faults.injected_unavailable);
  EXPECT_GE(reg.counter("retry.attempts")->value(),
            faults.injected_unavailable);

  // Recovery counters mirror the runtime's crash/respawn accounting.
  const RecoveryStats rs = run.dist->recovery_stats();
  EXPECT_EQ(reg.counter("ps.recovery.failed_epochs")->value(),
            static_cast<uint64_t>(rs.failed_epochs));
  EXPECT_EQ(reg.counter("ps.recovery.respawns")->value(),
            static_cast<uint64_t>(rs.respawns));
  EXPECT_EQ(reg.counter("ps.recovery.respawn_failures")->value(),
            static_cast<uint64_t>(rs.respawn_failures));
  EXPECT_EQ(reg.counter("ps.recovery.reassigned_epochs")->value(),
            static_cast<uint64_t>(rs.reassigned_epochs));
}

TEST_F(ChaosTrainingTest, AsyncWorkerSelfHealsAfterCrash) {
  DistributedConfig dc = BaseConfig(/*epochs=*/4);
  dc.async_epochs = true;
  dc.pool_threads = 0;  // real concurrency; we only assert learning
  ChaosPlan plan;
  plan.faults.seed = 9;
  plan.faults.unavailable_prob = 0.05;
  ChaosRun run = MakeRun(dc, plan);
  run.backend->injector(0)->ArmCrashAfterOps(7);  // dies mid-schedule
  ASSERT_TRUE(run.dist->Train().ok());
  EXPECT_EQ(run.backend->injector(0)->stats().crashes, 1u);
  EXPECT_GT(run.dist->AverageTestAuc(), 0.52);
}

// ---------------------------------------------------------------------------
// Kill-and-resume: periodic checkpoints + crash recovery of the whole run.

class KillResumeTest : public ChaosTrainingTest {
 protected:
  mamdr::testing::ScopedTempDir tmp_{"mamdr_chaos"};
  std::string dir_ = tmp_.str();
};

TEST_F(KillResumeTest, CheckpointRoundTripRestoresPsState) {
  obs::Registry::Global().Reset();
  DistributedConfig dc = BaseConfig(/*epochs=*/2);
  dc.checkpoint_dir = dir_;
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  // One checkpoint per completed epoch, mirrored in the metrics registry.
  EXPECT_EQ(obs::Registry::Global().counter("ps.checkpoint.saves")->value(),
            2u);
  const auto before = dist.server()->SnapshotAll();

  // Perturb the PS, then restore from the checkpoint written at epoch 2.
  std::vector<Tensor> zeros;
  zeros.reserve(before.size());
  for (const auto& t : before) zeros.emplace_back(t.shape(), 0.0f);
  dist.server()->RestoreAll(zeros);
  auto resumed = dist.RestoreFromCheckpoint();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value(), 2);
  EXPECT_EQ(
      obs::Registry::Global().counter("ps.checkpoint.restores")->value(), 1u);
  const auto after = dist.server()->SnapshotAll();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(before[i], after[i]));
  }
}

TEST_F(KillResumeTest, InterruptedTrainingResumesFromCheckpoint) {
  // "Kill" after epoch 2 by running a 2-epoch process...
  DistributedConfig killed = BaseConfig(/*epochs=*/2);
  killed.checkpoint_dir = dir_;
  {
    DistributedMamdr dist(mc_, &ds_, killed);
    ASSERT_TRUE(dist.Train().ok());
    ASSERT_TRUE(fs::exists(dir_ + "/ps.ckpt"));
  }
  // ...then "restart" with the full 4-epoch budget: Train() must resume at
  // epoch 2 and only run the remaining two.
  DistributedConfig resumed = BaseConfig(/*epochs=*/4);
  resumed.checkpoint_dir = dir_;
  DistributedMamdr dist(mc_, &ds_, resumed);
  ASSERT_TRUE(dist.Train().ok());
  EXPECT_EQ(dist.epochs_run(), 4);
  // Two epochs of traffic, not four: resume didn't retrain from scratch.
  const auto stats = dist.server()->stats();
  DistributedMamdr fresh(mc_, &ds_, BaseConfig(/*epochs=*/2));
  ASSERT_TRUE(fresh.Train().ok());
  EXPECT_EQ(stats.pull_ops, fresh.server()->stats().pull_ops);
  // And the resumed model is a valid learner.
  EXPECT_GT(dist.AverageTestAuc(), 0.52);
}

TEST_F(KillResumeTest, ChaosRunResumesToo) {
  DistributedConfig killed = BaseConfig(/*epochs=*/2);
  killed.checkpoint_dir = dir_;
  {
    ChaosRun run = MakeRun(killed, Chaos());
    ASSERT_TRUE(run.backend->Train(run.dist.get(), 2, /*resume=*/true).ok());
  }
  DistributedConfig resumed = BaseConfig(/*epochs=*/5);
  resumed.checkpoint_dir = dir_;
  ChaosRun run = MakeRun(resumed, Chaos());
  ASSERT_TRUE(run.backend->Train(run.dist.get(), 5, /*resume=*/true).ok());
  EXPECT_EQ(run.dist->epochs_run(), 5);
  EXPECT_GT(run.dist->AverageTestAuc(), 0.52);
}

TEST_F(KillResumeTest, CorruptedCheckpointRefusesToResume) {
  DistributedConfig dc = BaseConfig(/*epochs=*/2);
  dc.checkpoint_dir = dir_;
  {
    DistributedMamdr dist(mc_, &ds_, dc);
    ASSERT_TRUE(dist.Train().ok());
  }
  // Flip one byte in the middle of the checkpoint.
  const std::string path = dir_ + "/ps.ckpt";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  DistributedConfig more = BaseConfig(/*epochs=*/4);
  more.checkpoint_dir = dir_;
  DistributedMamdr dist(mc_, &ds_, more);
  // Training on a corrupted checkpoint must fail loudly, not silently
  // restart from scratch.
  Status s = dist.Train();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  auto restore = dist.RestoreFromCheckpoint();
  EXPECT_FALSE(restore.ok());
}

TEST_F(KillResumeTest, MissingCheckpointTrainsFromScratch) {
  DistributedConfig dc = BaseConfig(/*epochs=*/2);
  dc.checkpoint_dir = dir_;  // empty dir: no ps.ckpt yet
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  EXPECT_EQ(dist.epochs_run(), 2);
  EXPECT_TRUE(fs::exists(dir_ + "/ps.ckpt"));
}

}  // namespace
}  // namespace ps
}  // namespace mamdr

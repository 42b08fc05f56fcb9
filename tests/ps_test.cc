#include <gtest/gtest.h>

#include <cstring>

#include "metrics/auc.h"
#include "models/registry.h"
#include "optim/adam.h"
#include "optim/param_snapshot.h"
#include "optim/sgd.h"
#include "ps/distributed_mamdr.h"
#include "tensor/step_buffers.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace ps {
namespace {

/// Forwards every op to `inner` and counts it in `*ops`.
class CountingPsClient : public PsClient {
 public:
  CountingPsClient(std::unique_ptr<PsClient> inner, int64_t* ops)
      : inner_(std::move(inner)), ops_(ops) {}

  int64_t num_params() const override { return inner_->num_params(); }
  bool is_embedding(int64_t idx) const override {
    return inner_->is_embedding(idx);
  }
  Status PullDense(std::vector<Tensor>* out) override {
    ++*ops_;
    return inner_->PullDense(out);
  }
  Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                  Tensor* into) override {
    ++*ops_;
    return inner_->PullRows(idx, rows, into);
  }
  Status PullFullTable(int64_t idx, Tensor* into) override {
    ++*ops_;
    return inner_->PullFullTable(idx, into);
  }
  Status PushDenseDelta(const std::vector<Tensor>& delta,
                        float beta) override {
    ++*ops_;
    return inner_->PushDenseDelta(delta, beta);
  }
  Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                       const Tensor& delta, float beta) override {
    ++*ops_;
    return inner_->PushRowDeltas(idx, rows, delta, beta);
  }
  Result<std::vector<Tensor>> Snapshot() override {
    ++*ops_;
    return inner_->Snapshot();
  }
  Status Restore(const std::vector<Tensor>& params) override {
    ++*ops_;
    return inner_->Restore(params);
  }

 private:
  std::unique_ptr<PsClient> inner_;
  int64_t* ops_;
};

TEST(ParameterServerTest, PullDenseSkipsEmbeddings) {
  std::vector<Tensor> params{Tensor({2, 2}, 1.0f), Tensor({4, 3}, 2.0f)};
  ParameterServer server(params, {false, true});
  DirectPsClient client(&server);
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({4, 3})};
  ASSERT_TRUE(client.PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
  EXPECT_FLOAT_EQ(out[1].at(0), 0.0f);  // embedding untouched
  EXPECT_EQ(server.stats().bytes_pulled, 4u * 4u);
}

TEST(ParameterServerTest, PullRowsCopiesOnlyRequested) {
  std::vector<Tensor> params{Tensor::FromMatrix({{1, 1}, {2, 2}, {3, 3}})};
  ParameterServer server(params, {true});
  // The server hands back packed rows in request order...
  float packed[4] = {0, 0, 0, 0};
  server.ReadRows(0, {2, 0}, packed);
  EXPECT_FLOAT_EQ(packed[0], 3.0f);
  EXPECT_FLOAT_EQ(packed[2], 1.0f);
  EXPECT_EQ(server.stats().rows_pulled, 2u);
  EXPECT_EQ(server.stats().bytes_pulled, 2u * 2u * 4u);
  // ...and the client scatters them into the matching rows only.
  DirectPsClient client(&server);
  Tensor local({3, 2});
  ASSERT_TRUE(client.PullRows(0, {2}, &local).ok());
  EXPECT_FLOAT_EQ(local.at(2, 0), 3.0f);
  EXPECT_FLOAT_EQ(local.at(0, 0), 0.0f);
  EXPECT_EQ(server.stats().rows_pulled, 3u);
}

TEST(ParameterServerTest, PushDenseDeltaAppliesEquation3) {
  std::vector<Tensor> params{Tensor({2}, 1.0f)};
  ParameterServer server(params, {false});
  const Tensor delta({2}, 4.0f);
  server.WriteDense({0}, {delta.data()}, 0.5f, PsWrite::kEq3);  // 1+0.5*4
  EXPECT_FLOAT_EQ(server.SnapshotAll()[0].at(0), 3.0f);
  server.WriteDense({0}, {delta.data()}, 0.5f, PsWrite::kRestore);
  EXPECT_FLOAT_EQ(server.SnapshotAll()[0].at(0), 4.0f);  // beta ignored
  EXPECT_EQ(server.stats().bytes_pushed, 2u * 2u * 4u);
}

TEST(ParameterServerTest, PushRowDeltasIsSparse) {
  std::vector<Tensor> params{Tensor({3, 2}, 1.0f)};
  ParameterServer server(params, {true});
  DirectPsClient client(&server);
  Tensor delta({3, 2}, 2.0f);
  ASSERT_TRUE(client.PushRowDeltas(0, {1}, delta, 1.0f).ok());
  auto snap = server.SnapshotAll();
  EXPECT_FLOAT_EQ(snap[0].at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(snap[0].at(0, 0), 1.0f);  // other rows untouched
  EXPECT_EQ(server.stats().rows_pushed, 1u);
  // A restore write assigns the packed row and counts as a row push.
  const float row[2] = {7.0f, 8.0f};
  server.WriteRows(0, {2}, row, 1.0f, PsWrite::kRestore);
  snap = server.SnapshotAll();
  EXPECT_FLOAT_EQ(snap[0].at(2, 1), 8.0f);
  EXPECT_FLOAT_EQ(snap[0].at(1, 0), 3.0f);
  EXPECT_EQ(server.stats().rows_pushed, 2u);
}

TEST(ParameterServerTest, ServerOwnsItsState) {
  std::vector<Tensor> params{Tensor({1}, 1.0f)};
  ParameterServer server(params, {false});
  params[0].at(0) = 99.0f;  // mutating caller state must not affect server
  auto snap = server.SnapshotAll();
  EXPECT_FLOAT_EQ(snap[0].at(0), 1.0f);
}

TEST(DirectPsClientTest, ConstructionAllocatesNoTensors) {
  // The client validates against the server's own layout; building it must
  // not copy a single parameter.
  std::vector<Tensor> params{Tensor({2, 2}, 1.0f), Tensor({50, 8}, 2.0f)};
  ParameterServer server(params, {false, true});
  const int64_t before = ThreadTensorAllocations();
  DirectPsClient client(&server);
  EXPECT_EQ(ThreadTensorAllocations() - before, 0);
  EXPECT_EQ(client.num_params(), 2);
}

TEST(EmbeddingCacheTest, MissesThenHits) {
  EmbeddingCache cache;
  auto misses = cache.TouchAndGetMisses({1, 2, 2, 3});
  EXPECT_EQ(misses.size(), 3u);  // deduplicated
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);  // the duplicate 2
  misses = cache.TouchAndGetMisses({2, 3, 4});
  EXPECT_EQ(misses, std::vector<int64_t>{4});
  EXPECT_EQ(cache.size(), 4);
}

TEST(EmbeddingCacheTest, ClearEmptiesButKeepsStats) {
  EmbeddingCache cache;
  cache.TouchAndGetMisses({1, 2});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.stats().misses, 2u);  // cumulative accounting
}

TEST(EmbeddingCacheTest, CachedRowsSorted) {
  EmbeddingCache cache;
  cache.TouchAndGetMisses({5, 1, 3});
  EXPECT_EQ(cache.CachedRows(), (std::vector<int64_t>{1, 3, 5}));
}

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(4, 150, 17);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
  }

  DistributedConfig MakeConfig(int64_t workers, bool cache) {
    DistributedConfig dc;
    dc.num_workers = workers;
    dc.use_embedding_cache = cache;
    dc.train.epochs = 3;
    dc.train.batch_size = 64;
    dc.train.inner_lr = 2e-3f;
    dc.train.outer_lr = 0.5f;
    dc.train.seed = 5;
    return dc;
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
};

TEST_F(DistributedTest, EveryDomainHasAnOwner) {
  DistributedMamdr dist(mc_, &ds_, MakeConfig(2, true));
  EXPECT_EQ(dist.num_workers(), 2);
  for (int64_t d = 0; d < ds_.num_domains(); ++d) {
    const int64_t w = dist.OwnerOf(d);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, dist.num_workers());
  }
}

TEST_F(DistributedTest, ClampsWorkersToDomains) {
  DistributedMamdr dist(mc_, &ds_, MakeConfig(64, true));
  EXPECT_EQ(dist.num_workers(), ds_.num_domains());
}

TEST_F(DistributedTest, TrainingLearnsSignal) {
  auto dc = MakeConfig(2, true);
  dc.train.epochs = 5;
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  // Distributed DN must move the PS parameters toward a learning solution.
  EXPECT_GT(dist.AverageTestAuc(), 0.52);
}

TEST_F(DistributedTest, CacheReducesPulledBytes) {
  DistributedMamdr with_cache(mc_, &ds_, MakeConfig(2, true));
  ASSERT_TRUE(with_cache.Train().ok());
  const auto stats_cache = with_cache.server()->stats();

  DistributedMamdr no_cache(mc_, &ds_, MakeConfig(2, false));
  ASSERT_TRUE(no_cache.Train().ok());
  const auto stats_nocache = no_cache.server()->stats();

  // The dynamic cache deduplicates row pulls within an epoch; the baseline
  // re-pulls every batch. Pushed bytes shrink too (one sparse push per epoch
  // instead of per step).
  EXPECT_LT(stats_cache.rows_pulled, stats_nocache.rows_pulled);
  EXPECT_LT(stats_cache.push_ops, stats_nocache.push_ops);
}

TEST_F(DistributedTest, CacheHitRateIsHigh) {
  DistributedMamdr dist(mc_, &ds_, MakeConfig(1, true));
  ASSERT_TRUE(dist.Train().ok());
  uint64_t hits = 0, misses = 0;
  const PsLayout& layout = dist.server()->layout();
  for (int64_t p = 0; p < layout.num_params(); ++p) {
    if (!layout.is_embedding(p)) continue;
    hits += dist.worker(0)->cache(p).stats().hits;
    misses += dist.worker(0)->cache(p).stats().misses;
  }
  EXPECT_GT(hits, 0u);
  // With 3 epochs over the same data most touches are repeat touches.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.4);
}

TEST_F(DistributedTest, RunDrGivesPerDomainParameters) {
  auto dc = MakeConfig(2, true);
  dc.run_dr = true;
  dc.train.dr_sample_k = 1;
  dc.train.dr_max_batches = 2;
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  // Each worker's store must hold non-zero specific params for owned domains.
  for (int64_t d = 0; d < ds_.num_domains(); ++d) {
    auto* store = dist.worker(dist.OwnerOf(d))->specific_store();
    double norm = 0.0;
    for (const auto& t : store->specific(d)) norm += ops::SquaredNorm(t);
    EXPECT_GT(norm, 0.0) << "domain " << d;
  }
  const auto aucs = dist.EvaluateTest();
  EXPECT_EQ(aucs.size(), static_cast<size_t>(ds_.num_domains()));
}

TEST_F(DistributedTest, DrEvaluationIssuesNoAdminOps) {
  // The PS the factory's clients share, with the layout and initial values
  // DistributedMamdr derives from its reference replica (same model, seed).
  Rng rng(mc_.seed);
  auto model = models::CreateModel("MLP", mc_, &rng);
  ASSERT_TRUE(model.ok());
  std::vector<bool> is_embedding;
  MakeDefaultRowExtractor(model.value().get(), mc_, &is_embedding);
  ParameterServer server(optim::Snapshot(model.value()->Parameters()),
                         is_embedding);

  // Evaluation with DR scores from the owner workers' replicas, so the
  // admin client (factory id -1) stays silent; without DR it snapshots the
  // PS into the reference replica once.
  for (const bool run_dr : {true, false}) {
    int64_t admin_ops = 0;
    auto dc = MakeConfig(2, true);
    dc.run_dr = run_dr;
    dc.train.epochs = 1;
    dc.train.dr_sample_k = 1;
    dc.train.dr_max_batches = 1;
    dc.ps_client_factory = [&](int64_t id) -> std::unique_ptr<PsClient> {
      auto direct = std::make_unique<DirectPsClient>(&server);
      if (id >= 0) return direct;
      return std::make_unique<CountingPsClient>(std::move(direct), &admin_ops);
    };
    DistributedMamdr dist(mc_, &ds_, dc);
    ASSERT_TRUE(dist.Train().ok());
    admin_ops = 0;
    const double auc = dist.AverageTestAuc();
    EXPECT_GT(auc, 0.0);
    EXPECT_EQ(admin_ops, run_dr ? 0 : 1) << "run_dr=" << run_dr;
  }
}

TEST_F(DistributedTest, EvaluateTestScoresOwnerCompositesOrThePsState) {
  for (const bool run_dr : {true, false}) {
    SCOPED_TRACE(run_dr ? "run_dr" : "no dr");
    auto dc = MakeConfig(2, true);
    dc.run_dr = run_dr;
    dc.pool_threads = 1;
    dc.train.epochs = 2;
    dc.train.dr_sample_k = 1;
    dc.train.dr_max_batches = 2;
    DistributedMamdr dist(mc_, &ds_, dc);
    ASSERT_TRUE(dist.Train().ok());
    const std::vector<double> evaluated = dist.EvaluateTest();
    ASSERT_EQ(evaluated.size(), static_cast<size_t>(ds_.num_domains()));

    // By hand: with DR, domain d scores on its owner's replica with
    // θS + θd installed; without, on a same-seed replica holding the PS
    // parameters.
    Rng rng(mc_.seed);
    auto reference = models::CreateModel("MLP", mc_, &rng).value();
    auto reference_params = reference->Parameters();
    optim::Restore(reference_params, dist.server()->SnapshotAll());
    for (int64_t d = 0; d < ds_.num_domains(); ++d) {
      const data::Batch batch = data::Batcher::All(ds_.domain(d).test);
      std::vector<float> scores;
      if (run_dr) {
        Worker* owner = dist.worker(dist.OwnerOf(d));
        owner->specific_store()->InstallComposite(d);
        scores = owner->model()->Score(batch, d);
      } else {
        scores = reference->Score(batch, d);
      }
      const double auc = metrics::Auc(scores, batch.labels);
      EXPECT_EQ(std::memcmp(&auc, &evaluated[static_cast<size_t>(d)],
                            sizeof(double)),
                0)
          << "domain " << d << ": " << auc << " vs "
          << evaluated[static_cast<size_t>(d)];
    }
  }
}

TEST_F(DistributedTest, AsyncModeLearnsWithoutBarriers) {
  auto dc = MakeConfig(3, true);
  dc.async_epochs = true;
  dc.train.epochs = 5;
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  // Async pushes land on the PS from all workers without coordination;
  // the result must still be a learning model (the paper's deployment is
  // asynchronous).
  EXPECT_GT(dist.AverageTestAuc(), 0.52);
  const auto stats = dist.server()->stats();
  EXPECT_GT(stats.push_ops, 0u);
}

TEST_F(DistributedTest, AsyncWithDrKeepsPerDomainState) {
  auto dc = MakeConfig(2, true);
  dc.async_epochs = true;
  dc.run_dr = true;
  dc.train.epochs = 2;
  dc.train.dr_sample_k = 1;
  dc.train.dr_max_batches = 1;
  DistributedMamdr dist(mc_, &ds_, dc);
  ASSERT_TRUE(dist.Train().ok());
  for (int64_t d = 0; d < ds_.num_domains(); ++d) {
    auto* store = dist.worker(dist.OwnerOf(d))->specific_store();
    double norm = 0.0;
    for (const auto& t : store->specific(d)) norm += ops::SquaredNorm(t);
    EXPECT_GT(norm, 0.0) << "domain " << d;
  }
}

TEST_F(DistributedTest, MoreWorkersStillLearn) {
  DistributedMamdr dist(mc_, &ds_, MakeConfig(4, true));
  ASSERT_TRUE(dist.Train().ok());
  const auto aucs = dist.EvaluateTest();
  double sum = 0.0;
  for (double a : aucs) sum += a;
  EXPECT_GT(sum / static_cast<double>(aucs.size()), 0.5);
}

TEST_F(DistributedTest, WorkerDnEpochUsesTheConfiguredInnerOptimizer) {
  // With the embedding cache on and one worker owning the PS outright, a DN
  // epoch leaves the worker's replica exactly where a plain inner loop with
  // the named optimizer puts a same-seed model.
  for (const char* name : {"sgd", "adam"}) {
    WorkerConfig wc;
    wc.domains = {0, 2};
    wc.train = MakeConfig(1, true).train;
    wc.train.inner_optimizer = name;
    wc.train.inner_lr = 0.05f;
    wc.train.dn_max_batches = 3;

    Rng wrng(mc_.seed);
    auto model = models::CreateModel("MLP", mc_, &wrng).value();
    std::vector<bool> is_embedding;
    RowExtractor extractor =
        MakeDefaultRowExtractor(model.get(), mc_, &is_embedding);
    ParameterServer server(optim::Snapshot(model->Parameters()),
                           is_embedding);
    Worker worker(0, std::move(model),
                  std::make_unique<DirectPsClient>(&server), &ds_, wc,
                  std::move(extractor));
    ASSERT_TRUE(worker.RunDnEpoch().ok()) << name;

    Rng ref_init(mc_.seed);
    auto ref = models::CreateModel("MLP", mc_, &ref_init).value();
    std::vector<autograd::Var> params = ref->Parameters();
    std::unique_ptr<optim::Optimizer> opt;
    if (std::string(name) == "sgd") {
      opt = std::make_unique<optim::Sgd>(params, wc.train.inner_lr);
    } else {
      opt = std::make_unique<optim::Adam>(params, wc.train.inner_lr);
    }
    Rng rng(wc.train.seed);  // worker 0's stream
    std::vector<int64_t> order = wc.domains;
    rng.Shuffle(&order);
    nn::Context ctx{/*training=*/true, &rng};
    data::Batch batch;
    for (int64_t d : order) {
      data::Batcher batcher(&ds_.domain(d).train, wc.train.batch_size, &rng);
      for (int64_t b = 0; b < wc.train.dn_max_batches && batcher.Next(&batch);
           ++b) {
        opt->ZeroGrad();
        ref->Loss(batch, d, ctx).Backward();
        opt->Step();
      }
    }

    const auto got = optim::Snapshot(worker.model()->Parameters());
    const auto want = optim::Snapshot(params);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size());
      EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                            static_cast<size_t>(got[i].size()) *
                                sizeof(float)),
                0)
          << name << " param " << i;
    }
  }
}

}  // namespace
}  // namespace ps
}  // namespace mamdr

#include <string>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "models/mlp_model.h"
#include "models/registry.h"

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "core/domain_negotiation.h"
#include "core/domain_regularization.h"
#include "core/framework_registry.h"
#include "core/mamdr.h"
#include "core/param_store.h"
#include "core/weighted_loss.h"
#include "metrics/auc.h"
#include "optim/param_snapshot.h"
#include "optim/sgd.h"
#include "tensor/step_buffers.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace core {
namespace {

TrainConfig FastConfig() {
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 64;
  tc.inner_lr = 2e-3f;
  tc.outer_lr = 0.5f;
  tc.dr_lr = 0.5f;
  tc.dr_sample_k = 2;
  tc.dr_max_batches = 2;
  tc.finetune_epochs = 1;
  tc.seed = 31;
  return tc;
}

class FrameworkBehaviourTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(3, 200, 13);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    rng_ = std::make_unique<Rng>(4);
    model_ = models::CreateModel("MLP", mc_, rng_.get()).value();
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<models::CtrModel> model_;
};

TEST_P(FrameworkBehaviourTest, TrainsAndLearnsSignal) {
  auto fw = CreateFramework(GetParam(), model_.get(), &ds_, FastConfig());
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  fw.value()->Train();
  // After training, train-split AUC must be clearly above chance. MAML gets
  // a lower bar: it only trains on half the data (support/query split) and
  // is the weakest framework in the paper's Table X as well.
  const double bar = GetParam() == "MAML" ? 0.54 : 0.58;
  const double train_auc = metrics::AverageAuc(ds_, metrics::Split::kTrain,
                                               fw.value()->Scorer());
  EXPECT_GT(train_auc, bar) << GetParam() << " failed to learn";
  // Evaluation runs and yields one AUC per domain.
  const auto test = fw.value()->EvaluateTest();
  EXPECT_EQ(test.size(), 3u);
  for (double a : test) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST_P(FrameworkBehaviourTest, NameRoundTripsThroughRegistry) {
  auto fw = CreateFramework(GetParam(), model_.get(), &ds_, FastConfig());
  ASSERT_TRUE(fw.ok());
  EXPECT_EQ(fw.value()->name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllFrameworks, FrameworkBehaviourTest,
    ::testing::Values("Alternate", "Alternate+Finetune", "Separate",
                      "Weighted Loss", "PCGrad", "MAML", "Reptile", "MLDG",
                      "DN", "DR", "MAMDR", "CDR-Transfer", "GradDrop"),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      std::string name = pinfo.param;
      for (char& c : name) {
        if (c == '+' || c == ' ' || c == '-') c = '_';
      }
      return name;
    });

TEST(FrameworkRegistryTest, UnknownNameFails) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(1);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  auto fw = CreateFramework("Nope", model.get(), &ds, FastConfig());
  EXPECT_FALSE(fw.ok());
  EXPECT_EQ(fw.status().code(), StatusCode::kNotFound);
}

TEST(FrameworkScorerTest, EveryScorerIsThreadSafeAndEvaluateMatchesIt) {
  // Every framework scores concurrently, including the ones that install
  // per-domain parameters (DR, MAMDR, Separate, CDR-Transfer, and
  // Alternate+Finetune after its last epoch); the parallel Evaluate equals
  // serial Scorer() calls bit for bit.
  const std::vector<std::string> known = KnownFrameworks();
  ASSERT_EQ(known.size(), 13u);
  const int64_t threads = KernelThreads();
  SetKernelThreads(3);  // one thread per domain: the parallel Evaluate path
  for (const std::string& name : known) {
    SCOPED_TRACE(name);
    auto ds = mamdr::testing::TinyDataset(3, 120, 5);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng rng(2);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    TrainConfig tc = FastConfig();
    tc.epochs = 2;
    auto fw = CreateFramework(name, model.get(), &ds, tc).value();
    EXPECT_TRUE(fw->ScorerIsThreadSafe());
    fw->Train();
    EXPECT_TRUE(fw->ScorerIsThreadSafe());
    const std::vector<double> evaluated = fw->Evaluate(metrics::Split::kTest);
    ASSERT_EQ(evaluated.size(), 3u);
    const metrics::ScoreFn scorer = fw->Scorer();
    for (int64_t d = 0; d < ds.num_domains(); ++d) {
      const data::Batch batch = data::Batcher::All(ds.domain(d).test);
      const double auc = metrics::Auc(scorer(batch, d), batch.labels);
      EXPECT_EQ(std::memcmp(&auc, &evaluated[static_cast<size_t>(d)],
                            sizeof(double)),
                0)
          << "domain " << d << ": " << auc << " vs "
          << evaluated[static_cast<size_t>(d)];
    }
  }
  SetKernelThreads(threads);
}

// Each domain's test split, repeated to a few thousand rows: a scoring
// call long enough that threads sharing one CPU get preempted inside it.
std::vector<data::Batch> LongTestBatches(const data::MultiDomainDataset& ds) {
  std::vector<data::Batch> out;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const data::Batch test = data::Batcher::All(ds.domain(d).test);
    data::Batch b;
    while (b.size() < 4096) {
      b.users.insert(b.users.end(), test.users.begin(), test.users.end());
      b.items.insert(b.items.end(), test.items.begin(), test.items.end());
      b.labels.insert(b.labels.end(), test.labels.begin(), test.labels.end());
    }
    out.push_back(std::move(b));
  }
  return out;
}

using DomainScores = std::vector<std::vector<float>>;

DomainScores ScoreEveryDomain(const metrics::ScoreFn& scorer,
                              const std::vector<data::Batch>& batches) {
  DomainScores out;
  for (size_t d = 0; d < batches.size(); ++d) {
    out.push_back(scorer(batches[d], static_cast<int64_t>(d)));
  }
  return out;
}

bool SameBits(const DomainScores& a, const DomainScores& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

// Four threads score every domain, starting together, round after round
// until a call found the pooled model busy and built a replica (or, for a
// model without a spec, for a fixed number of rounds); every thread's
// scores must equal serial calls bit for bit.
void ExpectConcurrentScoresMatchSerial(Framework* fw,
                                       const std::vector<data::Batch>& batches,
                                       int max_rounds) {
  const metrics::ScoreFn scorer = fw->Scorer();
  const DomainScores serial = ScoreEveryDomain(scorer, batches);
  EXPECT_EQ(fw->scoring_pool_size(), 1) << "serial calls build no replica";
  constexpr int kThreads = 4;
  for (int round = 0; round < max_rounds && fw->scoring_pool_size() == 1;
       ++round) {
    std::atomic<int> ready{0};
    std::vector<DomainScores> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[static_cast<size_t>(t)] = ScoreEveryDomain(scorer, batches);
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(SameBits(got[static_cast<size_t>(t)], serial))
          << "round " << round << ", thread " << t;
    }
  }
  // Replicas stay pooled; serial calls on whichever model they take still
  // give the same bits.
  EXPECT_TRUE(SameBits(ScoreEveryDomain(scorer, batches), serial));
}

// The five frameworks that install per-domain parameters before scoring,
// each over a model without non-parameter state (MLP) and one with it
// (STAR's per-domain moving statistics).
using ScorerConcurrencyCase = std::tuple<std::string, std::string>;

class ScorerConcurrencyTest
    : public ::testing::TestWithParam<ScorerConcurrencyCase> {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(3, 120, 5);
    Rng rng(2);
    model_ = models::CreateModel(std::get<1>(GetParam()),
                                 mamdr::testing::TinyModelConfig(ds_), &rng)
                 .value();
    TrainConfig tc = FastConfig();
    tc.epochs = 2;  // Alternate+Finetune finetunes in its last epoch
    fw_ = CreateFramework(std::get<0>(GetParam()), model_.get(), &ds_, tc)
              .value();
    fw_->Train();
  }

  data::MultiDomainDataset ds_;
  std::unique_ptr<models::CtrModel> model_;
  std::unique_ptr<Framework> fw_;
};

TEST_P(ScorerConcurrencyTest, ConcurrentScorerCallsMatchSerialBits) {
  ExpectConcurrentScoresMatchSerial(fw_.get(), LongTestBatches(ds_), 100);
  EXPECT_GT(fw_->scoring_pool_size(), 1) << "no call ever ran concurrently";
}

TEST_P(ScorerConcurrencyTest, ParallelEvaluateEqualsSerialEvaluate) {
  const int64_t threads = KernelThreads();
  SetKernelThreads(1);
  const std::vector<double> serial = fw_->Evaluate(metrics::Split::kTest);
  const std::vector<double> serial_val = fw_->Evaluate(metrics::Split::kVal);
  EXPECT_EQ(fw_->scoring_pool_size(), 1)
      << "a single-threaded Evaluate builds no replica";
  SetKernelThreads(4);
  const std::vector<double> parallel = fw_->Evaluate(metrics::Split::kTest);
  const std::vector<double> parallel_val = fw_->Evaluate(metrics::Split::kVal);
  SetKernelThreads(threads);
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                        serial.size() * sizeof(double)),
            0);
  ASSERT_EQ(parallel_val.size(), serial_val.size());
  EXPECT_EQ(std::memcmp(parallel_val.data(), serial_val.data(),
                        serial_val.size() * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    InstallingFrameworks, ScorerConcurrencyTest,
    ::testing::Combine(
        ::testing::Values(std::string("MAMDR"), std::string("DR"),
                          std::string("Separate"), std::string("CDR-Transfer"),
                          std::string("Alternate+Finetune")),
        ::testing::Values(std::string("MLP"), std::string("STAR"))),
    [](const ::testing::TestParamInfo<ScorerConcurrencyCase>& pinfo) {
      std::string name =
          std::get<0>(pinfo.param) + "_" + std::get<1>(pinfo.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ScorerPoolTest, ReplicasScoreWithTheModelsFrozenTables) {
  // Frozen embedding tables are not parameters, so no install step writes
  // them: a replica must take the model's.
  auto ds = mamdr::testing::TinyDataset(3, 120, 5);
  models::ModelConfig mc = mamdr::testing::TinyModelConfig(ds);
  mc.frozen_embeddings = true;
  Rng rng(2);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  TrainConfig tc = FastConfig();
  tc.epochs = 1;
  Mamdr fw(model.get(), &ds, tc);
  fw.Train();
  ExpectConcurrentScoresMatchSerial(&fw, LongTestBatches(ds), 100);
  EXPECT_GT(fw.scoring_pool_size(), 1) << "no call ever ran concurrently";
}

TEST(ScorerPoolTest, ModelWithoutSpecIsAPoolOfOne) {
  // A model constructed directly records no spec, so concurrent callers
  // take turns on it instead of building replicas.
  auto ds = mamdr::testing::TinyDataset(3, 120, 5);
  Rng rng(2);
  models::MlpModel model(mamdr::testing::TinyModelConfig(ds), &rng);
  ASSERT_EQ(model.spec(), nullptr);
  TrainConfig tc = FastConfig();
  tc.epochs = 1;
  Mamdr fw(&model, &ds, tc);
  fw.Train();
  ExpectConcurrentScoresMatchSerial(&fw, LongTestBatches(ds), 3);
  EXPECT_EQ(fw.scoring_pool_size(), 1);
}

TEST(TrainConfigTest, DefaultsAndFastConfigValidate) {
  EXPECT_TRUE(TrainConfig().Validate().ok());
  EXPECT_TRUE(FastConfig().Validate().ok());
  for (const char* opt : {"adam", "sgd", "adagrad"}) {
    TrainConfig tc;
    tc.inner_optimizer = opt;
    EXPECT_TRUE(tc.Validate().ok()) << opt;
  }
}

TEST(TrainConfigTest, ValidateRejectsValuesFrameworksAbortOn) {
  for (int64_t epochs : {int64_t{0}, int64_t{-1}}) {
    TrainConfig tc;
    tc.epochs = epochs;
    const Status s = tc.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << epochs;
    EXPECT_NE(s.message().find("epochs"), std::string::npos) << s.message();
  }
  for (int64_t batch : {int64_t{0}, int64_t{-5}}) {
    TrainConfig tc;
    tc.batch_size = batch;
    const Status s = tc.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << batch;
    EXPECT_NE(s.message().find("batch_size"), std::string::npos)
        << s.message();
  }
  for (const char* opt : {"bogus", "", "Adam"}) {
    TrainConfig tc;
    tc.inner_optimizer = opt;
    const Status s = tc.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << opt;
    EXPECT_NE(s.message().find("inner optimizer"), std::string::npos)
        << s.message();
  }
  for (int64_t k : {int64_t{0}, int64_t{-2}}) {
    TrainConfig tc;
    tc.dr_sample_k = k;
    const Status s = tc.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << k;
    EXPECT_NE(s.message().find("dr_sample_k"), std::string::npos)
        << s.message();
  }
  const std::pair<const char*, float TrainConfig::*> kRates[] = {
      {"inner_lr", &TrainConfig::inner_lr},
      {"outer_lr", &TrainConfig::outer_lr},
      {"dr_lr", &TrainConfig::dr_lr}};
  for (const float lr : {-1.0f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    for (const auto& [field, member] : kRates) {
      TrainConfig tc;
      tc.*member = lr;
      const Status s = tc.Validate();
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << field << " " << lr;
      EXPECT_NE(s.message().find(field), std::string::npos) << s.message();
    }
  }
}

TEST(FrameworkRegistryTest, ListsThirteenFrameworks) {
  EXPECT_EQ(KnownFrameworks().size(), 13u);
}

// ---------------------------------------------------------------------------
// SharedSpecificStore (Eq. 4 composition).
// ---------------------------------------------------------------------------

TEST(ParamStoreTest, CompositeEqualsSharedPlusSpecific) {
  autograd::Var p(Tensor::FromVector({1.0f, 2.0f}), true);
  SharedSpecificStore store({p}, 2);
  // Initially specific params are zero, so composite == shared.
  store.InstallComposite(0);
  EXPECT_TRUE(ops::AllClose(p.value(), Tensor::FromVector({1, 2})));
  // Train the composite in place: +0.5 to every element.
  p.mutable_value().at(0) += 0.5f;
  p.mutable_value().at(1) += 0.5f;
  store.UpdateSpecificFromComposite(0);
  EXPECT_TRUE(ops::AllClose(store.specific(0)[0],
                            Tensor::FromVector({0.5f, 0.5f})));
  // Domain 1 unchanged; reinstalling composites round-trips.
  store.InstallComposite(1);
  EXPECT_TRUE(ops::AllClose(p.value(), Tensor::FromVector({1, 2})));
  store.InstallComposite(0);
  EXPECT_TRUE(ops::AllClose(p.value(), Tensor::FromVector({1.5f, 2.5f})));
}

TEST(ParamStoreTest, SharedUpdateDoesNotTouchSpecific) {
  autograd::Var p(Tensor::FromVector({0.0f}), true);
  SharedSpecificStore store({p}, 1);
  store.InstallComposite(0);
  p.mutable_value().at(0) = 3.0f;
  store.UpdateSpecificFromComposite(0);  // specific = 3
  store.InstallShared();
  p.mutable_value().at(0) = 10.0f;
  store.UpdateSharedFromParams();  // shared = 10
  EXPECT_FLOAT_EQ(store.specific(0)[0].at(0), 3.0f);
  store.InstallComposite(0);
  EXPECT_FLOAT_EQ(p.value().at(0), 13.0f);
}

TEST(ParamStoreTest, AddDomainStartsAtShared) {
  autograd::Var p(Tensor::FromVector({2.0f}), true);
  SharedSpecificStore store({p}, 1);
  const int64_t d = store.AddDomain();
  EXPECT_EQ(d, 1);
  EXPECT_EQ(store.num_domains(), 2);
  store.InstallComposite(d);
  EXPECT_FLOAT_EQ(p.value().at(0), 2.0f);  // zero specific => shared
}

// ---------------------------------------------------------------------------
// DN-specific behaviour.
// ---------------------------------------------------------------------------

TEST(DomainNegotiationTest, OuterUpdateInterpolates) {
  auto ds = mamdr::testing::TinyDataset(2, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(6);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  auto params = model->Parameters();
  const auto before = optim::Snapshot(params);

  TrainConfig tc = FastConfig();
  tc.outer_lr = 0.0f;  // beta = 0: outer update must be a no-op
  DomainNegotiation dn(model.get(), &ds, tc);
  dn.TrainEpoch();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(params[i].value(), before[i], 1e-6f));
  }
}

TEST(DomainNegotiationTest, BetaScalesTheStep) {
  auto ds = mamdr::testing::TinyDataset(2, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);

  auto displacement = [&](float beta) {
    Rng rng(6);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    auto params = model->Parameters();
    const auto before = optim::Snapshot(params);
    TrainConfig tc = FastConfig();
    tc.outer_lr = beta;
    tc.seed = 99;  // same inner trajectory
    DomainNegotiation dn(model.get(), &ds, tc);
    dn.TrainEpoch();
    double norm = 0.0;
    for (size_t i = 0; i < params.size(); ++i) {
      norm += ops::SquaredNorm(ops::Sub(params[i].value(), before[i]));
    }
    return std::sqrt(norm);
  };

  const double half = displacement(0.5f);
  const double full = displacement(1.0f);
  EXPECT_NEAR(half * 2.0, full, full * 0.05);
}

TEST(DomainRegularizationTest, SpecificParamsBecomeNonZero) {
  auto ds = mamdr::testing::TinyDataset(3, 150, 8);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(7);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  DomainRegularization dr(model.get(), &ds, FastConfig());
  dr.TrainEpoch();
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    double norm = 0.0;
    for (const auto& t : dr.store()->specific(d)) {
      norm += ops::SquaredNorm(t);
    }
    EXPECT_GT(norm, 0.0) << "domain " << d << " specific params untouched";
  }
}

TEST(MamdrTest, ScorerUsesDomainSpecificParameters) {
  auto ds = mamdr::testing::TinyDataset(3, 150, 8);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(7);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  Mamdr mamdr(model.get(), &ds, FastConfig());
  mamdr.Train();
  data::Batch batch = data::Batcher::All(ds.domain(0).test);
  auto scorer = mamdr.Scorer();
  auto s0 = scorer(batch, 0);
  auto s1 = scorer(batch, 1);
  double diff = 0.0;
  for (size_t i = 0; i < s0.size(); ++i) {
    diff += std::fabs(static_cast<double>(s0[i]) - s1[i]);
  }
  EXPECT_GT(diff, 1e-6) << "specific parameters have no effect";
}

TEST(MamdrTest, AddDomainGrowsStore) {
  auto ds = mamdr::testing::TinyDataset(3, 100, 8);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(7);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  Mamdr mamdr(model.get(), &ds, FastConfig());
  EXPECT_EQ(mamdr.store()->num_domains(), 3);
  EXPECT_EQ(mamdr.AddDomain(), 3);
  EXPECT_EQ(mamdr.store()->num_domains(), 4);
}

TEST(WeightedLossTest, WeightsAdaptDuringTraining) {
  auto ds = mamdr::testing::TinyDataset(3, 150, 9);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(8);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  WeightedLoss wl(model.get(), &ds, FastConfig());
  const float w_before = wl.DomainWeight(0);
  wl.Train();
  bool any_changed = false;
  for (int64_t d = 0; d < 3; ++d) {
    if (std::fabs(wl.DomainWeight(d) - w_before) > 1e-4f) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "loss weights never moved";
}

// Forwards to a real model and logs each forward pass, so a test can order
// the TrainPass hooks against it.
class ForwardLogModel : public models::CtrModel {
 public:
  ForwardLogModel(models::CtrModel* inner, std::vector<std::string>* events)
      : inner_(inner), events_(events) {}

  autograd::Var Forward(const data::Batch& batch, int64_t domain,
                        const nn::Context& ctx) override {
    events_->push_back("forward");
    return inner_->Forward(batch, domain, ctx);
  }
  std::string name() const override { return inner_->name(); }

 private:
  models::CtrModel* inner_;
  std::vector<std::string>* events_;
};

bool BitEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(),
                    static_cast<size_t>(a[i].size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double GradSquaredNorm(const std::vector<autograd::Var>& params) {
  double sq = 0.0;
  for (const auto& p : params) {
    if (p.has_grad()) sq += static_cast<double>(ops::SquaredNorm(p.grad()));
  }
  return sq;
}

TEST(TrainPassTest, HooksBracketForwardAndBackwardBeforeTheStep) {
  auto ds = mamdr::testing::TinyDataset(2, 100, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng init(6);
  auto model = models::CreateModel("MLP", mc, &init).value();
  std::vector<std::string> events;
  ForwardLogModel logged(model.get(), &events);
  const std::vector<autograd::Var> params = model->Parameters();
  const std::vector<Tensor> initial = optim::Snapshot(params);
  optim::Sgd opt(params, 0.1f);

  std::vector<Tensor> at_batch_start;
  PassHooks hooks;
  hooks.before_forward = [&](const data::Batch& batch) {
    events.push_back("before_forward");
    EXPECT_GT(batch.size(), 0);
    at_batch_start = optim::Snapshot(params);
    return Status::OK();
  };
  hooks.after_backward = [&](const data::Batch&) {
    events.push_back("after_backward");
    EXPECT_GT(GradSquaredNorm(params), 0.0) << "gradients not populated";
    EXPECT_TRUE(BitEqual(optim::Snapshot(params), at_batch_start))
        << "optimizer stepped before after_backward";
    return Status::OK();
  };
  Rng rng(9);
  PassTelemetry telemetry;
  const Result<int64_t> batches =
      TrainPass(&logged, 0, ds.domain(0).train, /*batch_size=*/32,
                /*max_batches=*/3, &opt, &rng, hooks, &telemetry);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  EXPECT_EQ(batches.value(), 3);
  EXPECT_EQ(telemetry.batches, 3);
  EXPECT_GT(telemetry.grad_sq_sum, 0.0);
  std::vector<std::string> want;
  for (int b = 0; b < 3; ++b) {
    want.insert(want.end(), {"before_forward", "forward", "after_backward"});
  }
  EXPECT_EQ(events, want);
  EXPECT_FALSE(BitEqual(optim::Snapshot(params), initial));
}

TEST(TrainPassTest, FailingHookEndsThePassWithoutStepping) {
  // The worker's crash recovery relies on this: an injected kAborted from a
  // PS call inside a hook unwinds out of the pass before the local step.
  for (const bool fail_before_forward : {true, false}) {
    SCOPED_TRACE(fail_before_forward ? "before_forward" : "after_backward");
    auto ds = mamdr::testing::TinyDataset(2, 100, 5);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng init(6);
    auto model = models::CreateModel("MLP", mc, &init).value();
    const std::vector<autograd::Var> params = model->Parameters();
    optim::Sgd opt(params, 0.1f);

    int64_t seen = 0;
    std::vector<Tensor> at_batch_start;
    const Status crash = Status::Aborted("worker crashed (injected)");
    PassHooks hooks;
    hooks.before_forward = [&](const data::Batch&) {
      at_batch_start = optim::Snapshot(params);
      ++seen;
      return fail_before_forward && seen == 2 ? crash : Status::OK();
    };
    hooks.after_backward = [&](const data::Batch&) {
      return !fail_before_forward && seen == 2 ? crash : Status::OK();
    };
    Rng rng(9);
    PassTelemetry telemetry;
    const Status s =
        TrainPass(model.get(), 0, ds.domain(0).train, /*batch_size=*/32,
                  /*max_batches=*/0, &opt, &rng, hooks, &telemetry)
            .status();
    EXPECT_EQ(s.code(), crash.code());
    EXPECT_EQ(s.message(), crash.message());
    EXPECT_EQ(seen, 2) << "pass continued past the failing batch";
    EXPECT_EQ(telemetry.batches, 1) << "the failing batch was counted";
    EXPECT_TRUE(BitEqual(optim::Snapshot(params), at_batch_start))
        << "the failing batch took an optimizer step";
  }
}

TEST(MamlTest, SupportPassesAdvanceTheWorkCounters) {
  auto ds = mamdr::testing::TinyDataset(3, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(2);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  auto fw = CreateFramework("MAML", model.get(), &ds, FastConfig()).value();
  fw->TrainEpoch();
  int64_t non_empty_support = 0;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    if (ds.domain(d).train.size() / 2 > 0) ++non_empty_support;
  }
  EXPECT_EQ(fw->domain_pass_count(), non_empty_support);
  EXPECT_GT(fw->batch_step_count(), 0);
}

TEST(MamlTest, CountsOneForwardBackwardPerSupportBatchAndQuery) {
  auto ds = mamdr::testing::TinyDataset(3, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(2);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  const TrainConfig tc = FastConfig();
  auto fw = CreateFramework("MAML", model.get(), &ds, tc).value();
  fw->TrainEpoch();
  // Per domain: every support batch, then one query batch for the
  // first-order meta-gradient.
  int64_t want = 0;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const int64_t train = static_cast<int64_t>(ds.domain(d).train.size());
    const int64_t support = train / 2;
    if (support == 0 || train - support == 0) continue;
    want += (support + tc.batch_size - 1) / tc.batch_size + 1;
  }
  EXPECT_EQ(fw->batch_step_count(), want);
}

TEST(MldgTest, CountsEveryDomainsForwardBackwardPerMetaStep) {
  auto ds = mamdr::testing::TinyDataset(3, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(2);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  const TrainConfig tc = FastConfig();
  auto fw = CreateFramework("MLDG", model.get(), &ds, tc).value();
  fw->TrainEpoch();
  // Each meta-step runs one batch on each of the n-1 meta-train domains
  // and one on the held-out meta-test domain.
  const int64_t n = ds.num_domains();
  int64_t batches = 0;
  for (int64_t d = 0; d < n; ++d) {
    batches +=
        (static_cast<int64_t>(ds.domain(d).train.size()) + tc.batch_size - 1) /
        tc.batch_size;
  }
  const int64_t meta_steps = std::max<int64_t>(1, batches / n);
  EXPECT_EQ(fw->batch_step_count(), meta_steps * n);
  EXPECT_EQ(fw->domain_pass_count(), 0);
}

// From the second pass of an epoch on, a training step allocates no tensor
// storage: the step buffers serve every forward and backward tensor. And
// once the first epoch has built the optimizer state and the snapshots,
// nothing around the steps allocates either (DN's θ snapshot, DR's
// composite snapshot and inner-optimizer Reset, the optimizer steps): an
// epoch's allocations are exactly its first passes' step buffers. A
// 4-thread Evaluate straight after training equals a serial one; the step
// buffers never reach its threads (the TSan job runs this).
TEST(StepAllocationTest, SteadyStateStepsAllocateNothing) {
  for (const std::string name : {"MAMDR", "DN"}) {
    SCOPED_TRACE(name);
    auto ds = mamdr::testing::TinyDataset(3, 200, 13);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng rng(6);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    TrainConfig tc = FastConfig();
    tc.batch_size = 32;  // several batches per pass, the last one partial
    auto fw = CreateFramework(name, model.get(), &ds, tc).value();
    fw->TrainEpoch();
    for (int epoch = 1; epoch < 3; ++epoch) {
      const StepStats before = fw->step_stats();
      const int64_t allocations = ThreadTensorAllocations();
      fw->TrainEpoch();
      const int64_t made = ThreadTensorAllocations() - allocations;
      const StepStats after = fw->step_stats();
      EXPECT_GT(after.steps - before.steps, 10);
      EXPECT_EQ(after.steady_allocations, 0) << "epoch " << epoch;
      EXPECT_EQ(made, after.allocations - before.allocations)
          << "epoch " << epoch;
      EXPECT_GT(made, 0);
    }
    const int64_t threads = KernelThreads();
    SetKernelThreads(4);
    const std::vector<double> parallel = fw->Evaluate(metrics::Split::kTest);
    SetKernelThreads(1);
    const std::vector<double> serial = fw->Evaluate(metrics::Split::kTest);
    SetKernelThreads(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0);
  }
}

TEST(SeedDeterminismTest, SameSeedSameResult) {
  auto run = [] {
    auto ds = mamdr::testing::TinyDataset(2, 120, 3);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng rng(55);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    Mamdr mamdr(model.get(), &ds, FastConfig());
    mamdr.Train();
    return mamdr.AverageTestAuc();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace core
}  // namespace mamdr

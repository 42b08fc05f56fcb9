#include <string>

#include <cmath>

#include "models/registry.h"

#include <gtest/gtest.h>

#include "core/domain_negotiation.h"
#include "core/domain_regularization.h"
#include "core/framework_registry.h"
#include "core/mamdr.h"
#include "core/param_store.h"
#include "core/weighted_loss.h"
#include "optim/param_snapshot.h"
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

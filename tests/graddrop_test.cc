#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/framework_registry.h"
#include "core/graddrop.h"
#include "models/registry.h"
#include "obs/telemetry.h"
#include "optim/param_snapshot.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace core {
namespace {

TEST(GradDropTest, RejectsInvalidRate) {
  auto ds = mamdr::testing::TinyDataset(2, 80, 3);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(1);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  TrainConfig tc;
  EXPECT_DEATH(GradDrop(model.get(), &ds, tc, 1.0f), "");
}

TEST(GradDropTest, ZeroRateMatchesReptileTrajectory) {
  // With drop_rate=0 the masked pass is exactly a Reptile per-task pass;
  // same seed must therefore give the same parameters as Reptile.
  auto run = [](const char* kind) {
    auto ds = mamdr::testing::TinyDataset(2, 100, 7);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng rng(3);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    TrainConfig tc;
    tc.epochs = 2;
    tc.seed = 11;
    std::unique_ptr<Framework> fw;
    if (std::string(kind) == "graddrop0") {
      fw = std::make_unique<GradDrop>(model.get(), &ds, tc, 0.0f);
    } else {
      fw = CreateFramework("Reptile", model.get(), &ds, tc).value();
    }
    fw->Train();
    return optim::Snapshot(model->Parameters());
  };
  // At rate 0 GradDrop installs no mask and makes no RNG draw, so every
  // shuffle, dropout mask and step matches Reptile's.
  const auto a = run("graddrop0");
  const auto b = run("reptile");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          static_cast<size_t>(a[i].size()) * sizeof(float)),
              0)
        << "parameter " << i << " left Reptile's trajectory";
  }
}

TEST(GradDropTest, TrainsAboveChance) {
  auto ds = mamdr::testing::TinyDataset(3, 200, 13);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(4);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  TrainConfig tc;
  tc.epochs = 4;
  tc.inner_lr = 2e-3f;
  GradDrop fw(model.get(), &ds, tc, 0.2f);
  fw.Train();
  const double train_auc =
      metrics::AverageAuc(ds, metrics::Split::kTrain, fw.Scorer());
  EXPECT_GT(train_auc, 0.56);
}

TEST(GradDropTest, CountsWork) {
  auto ds = mamdr::testing::TinyDataset(3, 80, 3);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(4);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  TrainConfig tc;
  tc.epochs = 1;
  GradDrop fw(model.get(), &ds, tc, 0.5f);
  fw.TrainEpoch();
  EXPECT_EQ(fw.domain_pass_count(), 3);
  EXPECT_GT(fw.batch_step_count(), 0);
}

TEST(GradDropTest, EpochEmitsOneTelemetryRecordPerDomain) {
  auto ds = mamdr::testing::TinyDataset(3, 80, 3);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(4);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  TrainConfig tc;
  tc.epochs = 1;
  GradDrop fw(model.get(), &ds, tc, 0.5f);
  obs::TelemetrySink sink;
  obs::ScopedSink scoped(&sink);
  fw.TrainEpoch();
  const auto records = sink.domain_epochs();
  ASSERT_EQ(records.size(), 3u);
  for (size_t d = 0; d < records.size(); ++d) {
    EXPECT_EQ(records[d].framework, "GradDrop");
    EXPECT_EQ(records[d].domain, static_cast<int>(d));
    EXPECT_GT(records[d].batches, 0);
    EXPECT_TRUE(std::isfinite(records[d].mean_loss));
    EXPECT_GT(records[d].grad_norm, 0.0);
  }
}

}  // namespace
}  // namespace core
}  // namespace mamdr

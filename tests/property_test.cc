// Property-based sweeps: randomized inputs checked against brute-force
// reference implementations and algebraic invariants.
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/framework_registry.h"
#include "metrics/auc.h"
#include "metrics/conflict_probe.h"
#include "models/registry.h"
#include "optim/param_snapshot.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace {

// ---------------------------------------------------------------------------
// AUC vs the O(n^2) pairwise definition.
// ---------------------------------------------------------------------------

double BruteForceAuc(const std::vector<float>& scores,
                     const std::vector<float>& labels) {
  double wins = 0.0, pairs = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] < 0.5f) continue;
    for (size_t j = 0; j < scores.size(); ++j) {
      if (labels[j] > 0.5f) continue;
      pairs += 1.0;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  return pairs == 0.0 ? 0.5 : wins / pairs;
}

class AucPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AucPropertyTest, MatchesPairwiseDefinition) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = 20 + rng.UniformInt(200);
  std::vector<float> scores(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    // Quantized scores force plenty of ties.
    scores[i] = static_cast<float>(rng.UniformInt(10)) / 10.0f;
    labels[i] = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  }
  EXPECT_NEAR(metrics::Auc(scores, labels), BruteForceAuc(scores, labels),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertyTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Conflict probe vs brute force.
// ---------------------------------------------------------------------------

class ConflictPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflictPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77);
  const size_t n = 2 + rng.UniformInt(6);
  const int64_t dim = 5 + static_cast<int64_t>(rng.UniformInt(20));
  std::vector<Tensor> grads;
  for (size_t i = 0; i < n; ++i) {
    Tensor g({dim});
    for (int64_t j = 0; j < dim; ++j) {
      g.at(j) = static_cast<float>(rng.Normal());
    }
    grads.push_back(std::move(g));
  }
  const auto report = metrics::MeasureConflict(grads);
  double sum_ip = 0.0;
  int64_t neg = 0, pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double ip = ops::Dot(grads[i], grads[j]);
      sum_ip += ip;
      if (ip < 0) ++neg;
      ++pairs;
    }
  }
  EXPECT_EQ(report.num_pairs, pairs);
  EXPECT_NEAR(report.mean_inner_product, sum_ip / pairs, 1e-3);
  EXPECT_NEAR(report.conflict_rate, static_cast<double>(neg) / pairs, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictPropertyTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Meta-update algebra: interpolation is affine and composable.
// ---------------------------------------------------------------------------

class MetaAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(MetaAlgebraTest, InterpolationIsAffineInBeta) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31);
  const int64_t n = 4 + static_cast<int64_t>(rng.UniformInt(30));
  Tensor start({n}), end({n});
  for (int64_t i = 0; i < n; ++i) {
    start.at(i) = static_cast<float>(rng.Normal());
    end.at(i) = static_cast<float>(rng.Normal());
  }
  auto interp = [&](float beta) {
    autograd::Var p(end.Clone(), true);
    optim::MetaInterpolate({p}, {start.Clone()}, beta);
    return p.value();
  };
  const float beta = static_cast<float>(rng.Uniform(0.0, 1.0));
  Tensor at_beta = interp(beta);
  // p(beta) == start + beta * (end - start), elementwise.
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(at_beta.at(i),
                start.at(i) + beta * (end.at(i) - start.at(i)), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaAlgebraTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Flatten/Unflatten is a bijection for arbitrary layouts.
// ---------------------------------------------------------------------------

class FlattenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FlattenPropertyTest, RoundTripsArbitraryLayouts) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131);
  const size_t num_tensors = 1 + rng.UniformInt(6);
  std::vector<Tensor> layout;
  for (size_t t = 0; t < num_tensors; ++t) {
    const int64_t r = 1 + static_cast<int64_t>(rng.UniformInt(9));
    const int64_t c = 1 + static_cast<int64_t>(rng.UniformInt(9));
    Tensor x({r, c});
    for (int64_t i = 0; i < x.size(); ++i) {
      x.at(i) = static_cast<float>(rng.Normal());
    }
    layout.push_back(std::move(x));
  }
  Tensor flat = optim::Flatten(layout);
  auto back = optim::Unflatten(flat, layout);
  ASSERT_EQ(back.size(), layout.size());
  for (size_t t = 0; t < layout.size(); ++t) {
    EXPECT_TRUE(ops::AllClose(back[t], layout[t]));
    EXPECT_TRUE(back[t].shape() == layout[t].shape());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlattenPropertyTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// CDR-Transfer & ablation knobs behave.
// ---------------------------------------------------------------------------

TEST(CdrTransferTest, QuadraticDomainPasses) {
  auto ds = mamdr::testing::TinyDataset(4, 80, 3);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(2);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.cdr_transfer_batches = 1;
  auto fw =
      core::CreateFramework("CDR-Transfer", model.get(), &ds, tc).value();
  fw->TrainEpoch();
  // n targets x (n-1 aux + 1 target pass) = n^2 passes.
  EXPECT_EQ(fw->domain_pass_count(), 16);
}

TEST(AblationKnobsTest, DrOrderVariantsAllTrain) {
  auto ds = mamdr::testing::TinyDataset(3, 100, 3);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  for (auto order : {core::TrainConfig::DrOrder::kHelperFirst,
                     core::TrainConfig::DrOrder::kTargetFirst,
                     core::TrainConfig::DrOrder::kRandom}) {
    Rng rng(2);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.dr_sample_k = 1;
    tc.dr_max_batches = 1;
    tc.dr_order = order;
    auto fw = core::CreateFramework("DR", model.get(), &ds, tc).value();
    fw->Train();
    const auto aucs = fw->EvaluateTest();
    EXPECT_EQ(aucs.size(), 3u);
  }
}

TEST(AblationKnobsTest, DnFixedOrderIsDeterministicAcrossEpochs) {
  // With dn_shuffle=false and a fixed seed, two runs see identical domain
  // order; the resulting parameters must match exactly.
  auto run = [] {
    auto ds = mamdr::testing::TinyDataset(3, 100, 3);
    auto mc = mamdr::testing::TinyModelConfig(ds);
    Rng rng(2);
    auto model = models::CreateModel("MLP", mc, &rng).value();
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.dn_shuffle = false;
    auto fw = core::CreateFramework("DN", model.get(), &ds, tc).value();
    fw->Train();
    return fw->AverageTestAuc();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace mamdr

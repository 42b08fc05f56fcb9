#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "models/feature_encoder.h"
#include "models/registry.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace models {
namespace {

class ModelStructureTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset();
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    rng_ = std::make_unique<Rng>(77);
    auto result = CreateModel(GetParam(), mc_, rng_.get());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    model_ = std::move(result).value();
  }

  data::Batch MakeBatch(int64_t domain, int64_t n = 16) {
    Rng rng(5);
    return data::Batcher::Sample(ds_.domain(domain).train, n, &rng);
  }

  data::MultiDomainDataset ds_;
  ModelConfig mc_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<CtrModel> model_;
};

TEST_P(ModelStructureTest, ForwardShapeIsLogitColumn) {
  data::Batch batch = MakeBatch(0);
  nn::Context ctx;
  autograd::Var logits = model_->Forward(batch, 0, ctx);
  EXPECT_EQ(logits.value().rows(), batch.size());
  EXPECT_EQ(logits.value().cols(), 1);
}

TEST_P(ModelStructureTest, LossIsFinitePositiveScalar) {
  data::Batch batch = MakeBatch(1);
  nn::Context ctx{true, rng_.get()};
  autograd::Var loss = model_->Loss(batch, 1, ctx);
  EXPECT_EQ(loss.value().size(), 1);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
  EXPECT_GT(loss.value().at(0), 0.0f);
}

TEST_P(ModelStructureTest, BackwardProducesGradients) {
  data::Batch batch = MakeBatch(0);
  nn::Context ctx{true, rng_.get()};
  model_->ZeroGrad();
  model_->Loss(batch, 0, ctx).Backward();
  // At least 80% of parameters should receive a nonzero gradient (domain-
  // specific parameters of other domains legitimately get none).
  int64_t nonzero = 0, total = 0;
  for (const auto& p : model_->Parameters()) {
    ++total;
    if (p.has_grad() && ops::MaxAbs(p.grad()) > 0.0f) ++nonzero;
  }
  EXPECT_GT(nonzero, 0);
  EXPECT_GE(static_cast<double>(nonzero), 0.3 * static_cast<double>(total))
      << "only " << nonzero << "/" << total << " params got gradients";
}

TEST_P(ModelStructureTest, TrainingStepReducesLossOnFixedBatch) {
  data::Batch batch = MakeBatch(0, 64);
  nn::Context ctx{true, rng_.get()};
  auto params = model_->Parameters();
  optim::Adam opt(params, 0.01f);
  const float initial = model_->Loss(batch, 0, ctx).value().at(0);
  float final_loss = initial;
  for (int step = 0; step < 30; ++step) {
    opt.ZeroGrad();
    autograd::Var loss = model_->Loss(batch, 0, ctx);
    final_loss = loss.value().at(0);
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(final_loss, initial) << "no learning on a fixed batch";
}

TEST_P(ModelStructureTest, ScoreInUnitInterval) {
  data::Batch batch = MakeBatch(2);
  auto scores = model_->Score(batch, 2);
  ASSERT_EQ(scores.size(), static_cast<size_t>(batch.size()));
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST_P(ModelStructureTest, DeterministicForSameSeed) {
  Rng rng2(77);
  auto clone = CreateModel(GetParam(), mc_, &rng2);
  ASSERT_TRUE(clone.ok());
  data::Batch batch = MakeBatch(0);
  auto s1 = model_->Score(batch, 0);
  auto s2 = clone.value()->Score(batch, 0);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_FLOAT_EQ(s1[i], s2[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, ModelStructureTest,
    ::testing::Values("MLP", "WDL", "NeurFM", "DeepFM", "AutoInt",
                      "Shared-Bottom", "MMOE", "CGC", "PLE", "STAR", "RAW"),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      std::string name = pinfo.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class MultiDomainModelTest : public ModelStructureTest {};

TEST_P(MultiDomainModelTest, DomainsProduceDifferentScoresAfterTraining) {
  // Train domain towers apart, then the same batch must score differently
  // under different domain ids.
  nn::Context ctx{true, rng_.get()};
  optim::Adam opt(model_->Parameters(), 0.01f);
  for (int step = 0; step < 10; ++step) {
    for (int64_t d = 0; d < ds_.num_domains(); ++d) {
      data::Batch b = MakeBatch(d, 32);
      opt.ZeroGrad();
      model_->Loss(b, d, ctx).Backward();
      opt.Step();
    }
  }
  data::Batch batch = MakeBatch(0, 32);
  auto s0 = model_->Score(batch, 0);
  auto s1 = model_->Score(batch, 1);
  double diff = 0.0;
  for (size_t i = 0; i < s0.size(); ++i) {
    diff += std::fabs(static_cast<double>(s0[i]) - s1[i]);
  }
  EXPECT_GT(diff, 1e-4) << "multi-domain model ignores the domain id";
}

INSTANTIATE_TEST_SUITE_P(
    MultiDomainStructures, MultiDomainModelTest,
    ::testing::Values("Shared-Bottom", "MMOE", "CGC", "PLE", "STAR", "RAW"),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      std::string name = pinfo.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(RegistryTest, UnknownNameFails) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(1);
  auto result = CreateModel("DoesNotExist", mc, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, KnownModelsAllConstruct) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  for (const auto& name : KnownModels()) {
    Rng rng(1);
    auto result = CreateModel(name, mc, &rng);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result.value()->name(), name);
    EXPECT_GT(result.value()->NumParameters(), 0);
  }
}

// One bad field per case. CreateModel must refuse it with InvalidArgument,
// naming the field, for every structure; before Validate() these built a
// model, aborted in the constructor (an empty layer list in nn::MlpBlock)
// or aborted later (dropout 1.5 in autograd::Dropout).
struct BadConfigCase {
  std::string name;
  std::string field;  // must appear in the status message
  std::function<void(ModelConfig*)> corrupt;
};

void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class ModelConfigValidateTest
    : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ModelConfigValidateTest, CreateModelReturnsInvalidArgument) {
  const BadConfigCase& c = GetParam();
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  ASSERT_TRUE(mc.Validate().ok());
  c.corrupt(&mc);
  const Status st = mc.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(c.field), std::string::npos) << st.ToString();
  for (const auto& name : KnownModels()) {
    Rng rng(1);
    auto result = CreateModel(name, mc, &rng);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ModelConfigValidateTest,
    ::testing::Values(
        BadConfigCase{"num_users", "num_users",
                      [](ModelConfig* c) { c->num_users = 0; }},
        BadConfigCase{"num_items", "num_items",
                      [](ModelConfig* c) { c->num_items = -1; }},
        BadConfigCase{"num_domains", "num_domains",
                      [](ModelConfig* c) { c->num_domains = 0; }},
        BadConfigCase{"embedding_dim", "embedding_dim",
                      [](ModelConfig* c) { c->embedding_dim = 0; }},
        BadConfigCase{"num_user_groups", "num_user_groups",
                      [](ModelConfig* c) { c->num_user_groups = 0; }},
        BadConfigCase{"num_item_cats", "num_item_cats",
                      [](ModelConfig* c) { c->num_item_cats = -5; }},
        BadConfigCase{"num_experts", "num_experts",
                      [](ModelConfig* c) { c->num_experts = 0; }},
        BadConfigCase{"ple_layers", "ple_layers",
                      [](ModelConfig* c) { c->ple_layers = 0; }},
        BadConfigCase{"attn_heads", "attn_heads",
                      [](ModelConfig* c) { c->attn_heads = 0; }},
        BadConfigCase{"attn_head_dim", "attn_head_dim",
                      [](ModelConfig* c) { c->attn_head_dim = -1; }},
        BadConfigCase{"hidden", "hidden[1]",
                      [](ModelConfig* c) { c->hidden = {64, 0}; }},
        BadConfigCase{"expert_hidden", "expert_hidden[0]",
                      [](ModelConfig* c) { c->expert_hidden = {-2}; }},
        BadConfigCase{"tower_hidden", "tower_hidden[0]",
                      [](ModelConfig* c) { c->tower_hidden = {0}; }},
        BadConfigCase{"hidden_empty", "hidden",
                      [](ModelConfig* c) { c->hidden.clear(); }},
        BadConfigCase{"expert_hidden_empty", "expert_hidden",
                      [](ModelConfig* c) { c->expert_hidden.clear(); }},
        BadConfigCase{"tower_hidden_empty", "tower_hidden",
                      [](ModelConfig* c) { c->tower_hidden.clear(); }},
        BadConfigCase{"dropout_above_one", "dropout",
                      [](ModelConfig* c) { c->dropout = 1.5f; }},
        BadConfigCase{"dropout_one", "dropout",
                      [](ModelConfig* c) { c->dropout = 1.0f; }},
        BadConfigCase{"dropout_negative", "dropout",
                      [](ModelConfig* c) { c->dropout = -0.1f; }},
        BadConfigCase{"dropout_nan", "dropout",
                      [](ModelConfig* c) {
                        c->dropout = std::numeric_limits<float>::quiet_NaN();
                      }}),
    [](const ::testing::TestParamInfo<BadConfigCase>& pinfo) {
      return pinfo.param.name;
    });

TEST(RegistryTest, FrozenEmbeddingsShrinkParameterCount) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng1(1), rng2(1);
  auto trainable = CreateModel("MLP", mc, &rng1).value();
  mc.frozen_embeddings = true;
  auto frozen = CreateModel("MLP", mc, &rng2).value();
  EXPECT_GT(trainable->NumParameters(), frozen->NumParameters());
}

TEST(FeatureEncoderTest, FieldShapes) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(2);
  FeatureEncoder enc(mc, &rng);
  data::Batch batch;
  batch.users = {0, 5, 11};
  batch.items = {1, 2, 3};
  batch.labels = {1, 0, 1};
  auto fields = enc.Fields(batch);
  ASSERT_EQ(fields.size(), 4u);
  for (const auto& f : fields) {
    EXPECT_EQ(f.value().rows(), 3);
    EXPECT_EQ(f.value().cols(), mc.embedding_dim);
  }
  EXPECT_EQ(enc.Concat(batch).value().cols(), 4 * mc.embedding_dim);
}

}  // namespace
}  // namespace models
}  // namespace mamdr

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "testing/grad_check.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/fm.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/mlp_block.h"
#include "nn/partitioned_norm.h"
#include "optim/adam.h"
#include "tensor/step_buffers.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace nn {
namespace {

using autograd::Var;

Tensor RandTensor(const Shape& shape, Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Normal());
  }
  return t;
}

TEST(InitTest, XavierWithinLimit) {
  Rng rng(1);
  Tensor t = init::XavierUniform(10, 20, &rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  EXPECT_LE(ops::MaxAbs(t), limit);
  EXPECT_GT(ops::MaxAbs(t), 0.0f);
}

TEST(InitTest, ZerosAndOnes) {
  EXPECT_EQ(ops::Sum(init::Zeros({3, 3})), 0.0f);
  EXPECT_EQ(ops::Sum(init::Ones({3, 3})), 9.0f);
}

TEST(ModuleTest, ParameterRegistrationOrderIsStable) {
  Rng rng(3);
  MlpBlock mlp(4, {8, 2}, &rng);
  auto names1 = mlp.NamedParameters();
  auto names2 = mlp.NamedParameters();
  ASSERT_EQ(names1.size(), names2.size());
  for (size_t i = 0; i < names1.size(); ++i) {
    EXPECT_EQ(names1[i].first, names2[i].first);
    EXPECT_TRUE(names1[i].second.node() == names2[i].second.node());
  }
  // fc0: weight+bias, fc1: weight+bias.
  EXPECT_EQ(names1.size(), 4u);
  EXPECT_EQ(names1[0].first, "fc0.weight");
}

TEST(ModuleTest, NumParametersCounts) {
  Rng rng(3);
  Linear lin(4, 3, &rng);
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(4);
  Linear lin(2, 2, &rng);
  Var x(Tensor::FromMatrix({{1, 0}, {0, 1}}));
  Var y = lin.Forward(x);
  // With identity-row inputs, outputs are W rows + bias (bias starts 0).
  const Tensor& w = lin.Parameters()[0].value();
  EXPECT_NEAR(y.value().at(0, 0), w.at(0, 0), 1e-6f);
  EXPECT_NEAR(y.value().at(1, 1), w.at(1, 1), 1e-6f);
}

TEST(LinearTest, GradCheck) {
  Rng rng(5);
  Linear lin(3, 2, &rng);
  Var x(RandTensor({4, 3}, &rng));
  auto forward = [&]() { return autograd::Sum(autograd::Square(lin.Forward(x))); };
  auto result = autograd::CheckGradients(forward, lin.Parameters());
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(EmbeddingTest, FrozenTableHasNoParameters) {
  Rng rng(6);
  Embedding frozen(10, 4, &rng, /*trainable=*/false);
  Embedding trainable(10, 4, &rng, /*trainable=*/true);
  EXPECT_EQ(frozen.Parameters().size(), 0u);
  EXPECT_EQ(trainable.Parameters().size(), 1u);
}

TEST(EmbeddingTest, LookupShape) {
  Rng rng(6);
  Embedding emb(10, 4, &rng);
  Var out = emb.Forward({1, 5, 5});
  EXPECT_EQ(out.value().rows(), 3);
  EXPECT_EQ(out.value().cols(), 4);
}

TEST(MlpBlockTest, OutputShapeAndFinalActivation) {
  Rng rng(7);
  MlpBlock with_act(6, {8, 4}, &rng, 0.0f, /*final_activation=*/true);
  MlpBlock no_act(6, {8, 4}, &rng, 0.0f, /*final_activation=*/false);
  Var x(RandTensor({5, 6}, &rng));
  Context ctx;
  Var y1 = with_act.Forward(x, ctx);
  Var y2 = no_act.Forward(x, ctx);
  EXPECT_EQ(y1.value().cols(), 4);
  EXPECT_EQ(with_act.out_features(), 4);
  // ReLU output is non-negative; linear output generally is not.
  float min1 = 1e9f, min2 = 1e9f;
  for (int64_t i = 0; i < y1.value().size(); ++i) {
    min1 = std::min(min1, y1.value().at(i));
    min2 = std::min(min2, y2.value().at(i));
  }
  EXPECT_GE(min1, 0.0f);
  EXPECT_LT(min2, 0.0f);
}

TEST(MlpBlockTest, GradCheckThroughStack) {
  Rng rng(8);
  MlpBlock mlp(3, {5, 2}, &rng, 0.0f, /*final_activation=*/false);
  // Offset inputs away from ReLU kinks.
  Var x(RandTensor({4, 3}, &rng));
  Context ctx;
  auto forward = [&]() {
    return autograd::Sum(autograd::Square(mlp.Forward(x, ctx)));
  };
  auto result = autograd::CheckGradients(forward, mlp.Parameters(), 1e-3f,
                                         5e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

// One training step of an MLP (forward, loss, backward) inside a StepScope
// on `buffers` (null: plain allocation), then an Adam step outside it, as
// core::TrainPass runs it. Returns the output Var.
Var MlpStep(MlpBlock* mlp, optim::Optimizer* opt, const Tensor& x,
            StepBuffers* buffers) {
  opt->ZeroGrad();
  Var out;
  {
    StepScope step(buffers);
    out = mlp->Forward(Var(x), Context{});
    autograd::Sum(autograd::Square(out)).Backward();
  }
  opt->Step();
  return out;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0)
      << what;
}

// Steps on reused buffers compute exactly what freshly allocated ones do,
// through a batch that shrinks (a partial last batch), grows back and then
// grows past the first size, while an output held from the first step
// keeps its value. The held output pins the first step's graph, so the
// second step allocates replacements; after that a step allocates only
// where it needs more room than the previous one had.
TEST(StepBuffersTest, ReusedStepsMatchFreshAllocationBitForBit) {
  Rng init_a(9), init_b(9);
  MlpBlock reused(6, {16, 8, 1}, &init_a, 0.0f, /*final_activation=*/false);
  MlpBlock fresh(6, {16, 8, 1}, &init_b, 0.0f, /*final_activation=*/false);
  optim::Adam opt_reused(reused.Parameters(), 0.01f);
  optim::Adam opt_fresh(fresh.Parameters(), 0.01f);
  StepBuffers buffers;
  const std::vector<int64_t> batch = {5, 5, 2, 5, 7, 7, 1};
  const std::vector<bool> may_allocate = {true, true,  false, false,
                                          true, false, false};
  Var held;
  Tensor held_value;
  for (size_t s = 0; s < batch.size(); ++s) {
    Rng data(100 + s);
    const Tensor x = RandTensor({batch[s], 6}, &data);
    const int64_t before = ThreadTensorAllocations();
    Var a = MlpStep(&reused, &opt_reused, x, &buffers);
    const int64_t made = ThreadTensorAllocations() - before;
    Var b = MlpStep(&fresh, &opt_fresh, x, nullptr);
    const std::string what = "step " + std::to_string(s);
    if (!may_allocate[s]) {
      EXPECT_EQ(made, 0) << what;
    }
    ExpectBitEqual(a.value(), b.value(), what + " output");
    const std::vector<Var> pa = reused.Parameters(), pb = fresh.Parameters();
    for (size_t i = 0; i < pa.size(); ++i) {
      ExpectBitEqual(pa[i].grad(), pb[i].grad(),
                     what + " grad " + std::to_string(i));
      ExpectBitEqual(pa[i].value(), pb[i].value(),
                     what + " param " + std::to_string(i));
    }
    if (s == 0) {
      held = a;
      held_value = a.value().Clone();
    }
  }
  ExpectBitEqual(held.value(), held_value, "output held across steps");
  EXPECT_EQ(buffers.stats().steps, static_cast<int64_t>(batch.size()));
  EXPECT_GT(buffers.cached_buffers(), 0);
  buffers.Release();
  EXPECT_EQ(buffers.cached_buffers(), 0);
}

TEST(BiInteractionTest, MatchesPairwiseSum) {
  // BiInteraction = sum over pairs (f<g) of e_f ⊙ e_g.
  Rng rng(10);
  std::vector<Var> fields;
  for (int f = 0; f < 3; ++f) fields.emplace_back(RandTensor({2, 4}, &rng));
  Var bi = BiInteraction(fields);
  Tensor expected({2, 4});
  for (size_t f = 0; f < 3; ++f) {
    for (size_t g = f + 1; g < 3; ++g) {
      ops::AxpyInPlace(&expected,
                       ops::Mul(fields[f].value(), fields[g].value()), 1.0f);
    }
  }
  EXPECT_TRUE(ops::AllClose(bi.value(), expected, 1e-5f));
}

TEST(FmSecondOrderTest, ShapeAndConsistency) {
  Rng rng(11);
  std::vector<Var> fields;
  for (int f = 0; f < 4; ++f) fields.emplace_back(RandTensor({3, 2}, &rng));
  Var fm = FmSecondOrder(fields);
  EXPECT_EQ(fm.value().rows(), 3);
  EXPECT_EQ(fm.value().cols(), 1);
  Tensor bi_sum = ops::SumCols(BiInteraction(fields).value());
  EXPECT_TRUE(ops::AllClose(fm.value(), bi_sum, 1e-5f));
}

TEST(FieldAttentionTest, OutputShapes) {
  Rng rng(12);
  FieldAttention attn(4, /*heads=*/2, /*head_dim=*/3, &rng);
  std::vector<Var> fields;
  for (int f = 0; f < 3; ++f) fields.emplace_back(RandTensor({5, 4}, &rng));
  auto out = attn.Forward(fields);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& o : out) {
    EXPECT_EQ(o.value().rows(), 5);
    EXPECT_EQ(o.value().cols(), attn.out_dim());
  }
  EXPECT_EQ(attn.out_dim(), 6);
}

TEST(FieldAttentionTest, GradientsFlowToAllProjections) {
  Rng rng(13);
  FieldAttention attn(3, 1, 2, &rng);
  std::vector<Var> fields;
  for (int f = 0; f < 2; ++f) {
    fields.emplace_back(RandTensor({2, 3}, &rng), true);
  }
  auto out = attn.Forward(fields);
  autograd::Sum(autograd::ConcatCols(out)).Backward();
  for (const auto& p : attn.Parameters()) {
    EXPECT_TRUE(p.has_grad()) << p.name();
    EXPECT_GT(ops::MaxAbs(p.grad()), 0.0f) << p.name();
  }
}

TEST(PartitionedNormTest, NormalizesBatchInTraining) {
  PartitionedNorm pn(3, 2);
  Rng rng(14);
  Tensor x_raw = RandTensor({64, 3}, &rng);
  ops::ScaleInPlace(&x_raw, 5.0f);  // large scale, should be normalized away
  Var x(x_raw);
  Context ctx{true, &rng};
  Var y = pn.Forward(x, 0, ctx);
  // Column means ~0, variances ~1 (gamma=1, beta=0 initially).
  for (int64_t j = 0; j < 3; ++j) {
    double mean = 0.0, var = 0.0;
    for (int64_t i = 0; i < 64; ++i) mean += y.value().at(i, j);
    mean /= 64;
    for (int64_t i = 0; i < 64; ++i) {
      const double d = y.value().at(i, j) - mean;
      var += d * d;
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(PartitionedNormTest, DomainsKeepSeparateStatistics) {
  PartitionedNorm pn(2, 2);
  Rng rng(15);
  Context train{true, &rng};
  // Domain 0 sees mean 10 data, domain 1 sees mean -10 data.
  Tensor a({32, 2}, 10.0f);
  Tensor b({32, 2}, -10.0f);
  for (int64_t i = 0; i < a.size(); ++i) {
    a.at(i) += static_cast<float>(rng.Normal());
    b.at(i) += static_cast<float>(rng.Normal());
  }
  for (int step = 0; step < 20; ++step) {
    pn.Forward(Var(a), 0, train);
    pn.Forward(Var(b), 1, train);
  }
  // Eval mode uses per-domain moving statistics: feeding each domain its own
  // distribution should give near-standardized output.
  Context eval;
  Var ya = pn.Forward(Var(a), 0, eval);
  Var yb = pn.Forward(Var(b), 1, eval);
  EXPECT_NEAR(ops::Sum(ya.value()) / ya.value().size(), 0.0f, 0.3f);
  EXPECT_NEAR(ops::Sum(yb.value()) / yb.value().size(), 0.0f, 0.3f);
  // Cross-feeding shows a large shift.
  Var cross = pn.Forward(Var(a), 1, eval);
  EXPECT_GT(std::fabs(ops::Sum(cross.value()) / cross.value().size()), 5.0f);
}

TEST(PartitionedNormTest, HasSharedAndSpecificParameters) {
  PartitionedNorm pn(4, 3);
  // gamma/beta shared + 3 * (gamma_d/beta_d).
  EXPECT_EQ(pn.Parameters().size(), 2u + 3u * 2u);
}

}  // namespace
}  // namespace nn
}  // namespace mamdr

#include <cmath>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/random.h"
#include "optim/adagrad.h"
#include "optim/adam.h"
#include "optim/param_snapshot.h"
#include "optim/sgd.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace optim {
namespace {

using autograd::Var;

/// Minimize ||x - target||^2 with the given optimizer for `steps` steps;
/// returns the final squared distance.
template <typename Opt, typename... Args>
float MinimizeQuadratic(int steps, float lr, Args... args) {
  Var x(Tensor::FromVector({5.0f, -3.0f, 2.0f}), true);
  Tensor target = Tensor::FromVector({1.0f, 1.0f, 1.0f});
  Opt opt(std::vector<Var>{x}, lr, args...);
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Var diff = autograd::Sub(x, Var(target));
    autograd::Sum(autograd::Square(diff)).Backward();
    opt.Step();
  }
  return ops::SquaredNorm(
      ops::Sub(x.value(), target));
}

TEST(SgdTest, ConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Sgd>(100, 0.1f), 1e-4f);
}

TEST(SgdTest, MomentumConverges) {
  EXPECT_LT(MinimizeQuadratic<Sgd>(200, 0.05f, 0.9f), 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Adam>(300, 0.1f), 1e-3f);
}

TEST(AdagradTest, ConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Adagrad>(500, 0.5f), 1e-3f);
}

TEST(SgdTest, SingleStepIsExact) {
  Var x(Tensor::FromVector({1.0f}), true);
  Sgd opt({x}, 0.5f);
  opt.ZeroGrad();
  autograd::Sum(autograd::Square(x)).Backward();  // grad = 2
  opt.Step();
  EXPECT_FLOAT_EQ(x.value().at(0), 0.0f);  // 1 - 0.5*2
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  Var a(Tensor::FromVector({1.0f}), true);
  Var b(Tensor::FromVector({2.0f}), true);
  Sgd opt({a, b}, 0.1f);
  a.ZeroGrad();
  a.mutable_grad().at(0) = 1.0f;
  b.ClearGrad();  // no grad buffer
  opt.Step();
  EXPECT_FLOAT_EQ(a.value().at(0), 0.9f);
  EXPECT_FLOAT_EQ(b.value().at(0), 2.0f);
}

TEST(AdamTest, FirstStepSizeIsLr) {
  // With bias correction, Adam's first step is exactly lr * sign(g).
  Var x(Tensor::FromVector({1.0f}), true);
  Adam opt({x}, 0.1f);
  opt.ZeroGrad();
  x.mutable_grad().at(0) = 3.0f;
  opt.Step();
  EXPECT_NEAR(x.value().at(0), 0.9f, 1e-5f);
}

TEST(AdamTest, ResetRestoresFirstStepBehaviour) {
  Var x(Tensor::FromVector({1.0f}), true);
  Adam opt({x}, 0.1f);
  opt.ZeroGrad();
  x.mutable_grad().at(0) = 1.0f;
  opt.Step();
  const float delta1 = 1.0f - x.value().at(0);
  opt.Reset();
  const float before = x.value().at(0);
  opt.ZeroGrad();
  x.mutable_grad().at(0) = 1.0f;
  opt.Step();
  EXPECT_NEAR(before - x.value().at(0), delta1, 1e-5f);
}

/// Steps `opt` over params {a, b} with `steps` gradients drawn from
/// Rng(seed), leaving the parameters at their values after the last step.
void StepWithGradients(Optimizer* opt, int steps, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    for (const Var& p : opt->params()) {
      Var q = p;
      float* g = q.mutable_grad().data();
      for (int64_t j = 0; j < q.grad().size(); ++j) {
        g[j] = static_cast<float>(rng.Normal());
      }
    }
    opt->Step();
  }
}

void ExpectBitEqual(const std::vector<Tensor>& got,
                    const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].shape(), want[i].shape());
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          static_cast<size_t>(got[i].size()) * sizeof(float)),
              0)
        << "tensor " << i;
  }
}

/// After warm-up steps and Reset(), N steps from the same start must leave
/// the parameters a fresh optimizer's N steps leave, bit for bit, and the
/// slot state must keep its storage.
template <typename Opt, typename... Args>
void ExpectResetMatchesFreshOptimizer(Args... args) {
  Rng rng(21);
  const Tensor a0({5, 3}, 0.5f), b0({1, 3}, -0.25f);
  Var a(a0.Clone(), true), b(b0.Clone(), true);
  Opt reused(std::vector<Var>{a, b}, 0.05f, args...);
  StepWithGradients(&reused, 4, /*seed=*/1);
  const std::vector<Tensor> slots = reused.slots();
  ASSERT_FALSE(slots.empty());
  reused.Reset();
  for (const Tensor& t : reused.slots()) {
    EXPECT_EQ(ops::MaxAbs(t), 0.0f);
  }
  Restore({a, b}, {a0, b0});
  StepWithGradients(&reused, 6, /*seed=*/2);
  const std::vector<Tensor> after_reset = Snapshot({a, b});
  const std::vector<Tensor> slots_after = reused.slots();
  ASSERT_EQ(slots_after.size(), slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots_after[i].data(), slots[i].data()) << "slot " << i;
  }

  Var fa(a0.Clone(), true), fb(b0.Clone(), true);
  Opt fresh(std::vector<Var>{fa, fb}, 0.05f, args...);
  StepWithGradients(&fresh, 6, /*seed=*/2);
  ExpectBitEqual(after_reset, Snapshot({fa, fb}));
  ExpectBitEqual(slots_after, fresh.slots());
  // The steps moved the parameters, or the comparison is vacuous.
  EXPECT_FALSE(ops::AllClose(after_reset[0], a0, 1e-6f));
}

TEST(AdamTest, ResetMatchesFreshOptimizerInPlace) {
  ExpectResetMatchesFreshOptimizer<Adam>();
}

TEST(AdagradTest, ResetMatchesFreshOptimizerInPlace) {
  ExpectResetMatchesFreshOptimizer<Adagrad>();
}

TEST(SgdTest, MomentumResetMatchesFreshOptimizerInPlace) {
  ExpectResetMatchesFreshOptimizer<Sgd>(/*momentum=*/0.9f);
}

TEST(SnapshotTest, SnapshotIntoReusesMatchingStorage) {
  Var a(Tensor::FromVector({1, 2}), true);
  Var b(Tensor::FromVector({3}), true);
  std::vector<Tensor> snap;
  SnapshotInto({a, b}, &snap);  // empty: a fresh snapshot
  ASSERT_EQ(snap.size(), 2u);
  const float* storage = snap[0].data();
  a.mutable_value().at(0) = 7.0f;
  SnapshotInto({a, b}, &snap);
  EXPECT_EQ(snap[0].data(), storage);
  EXPECT_FLOAT_EQ(snap[0].at(0), 7.0f);
  EXPECT_FLOAT_EQ(snap[1].at(0), 3.0f);
  EXPECT_FALSE(snap[0].SharesStorageWith(a.value()));
  // A layout that no longer matches is replaced.
  SnapshotInto({b}, &snap);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_FLOAT_EQ(snap[0].at(0), 3.0f);
}

TEST(SnapshotTest, RoundTrip) {
  Var a(Tensor::FromVector({1, 2}), true);
  Var b(Tensor::FromVector({3}), true);
  auto snap = Snapshot({a, b});
  a.mutable_value().at(0) = 99.0f;
  b.mutable_value().at(0) = 99.0f;
  Restore({a, b}, snap);
  EXPECT_FLOAT_EQ(a.value().at(0), 1.0f);
  EXPECT_FLOAT_EQ(b.value().at(0), 3.0f);
}

TEST(SnapshotTest, SnapshotIsDeepCopy) {
  Var a(Tensor::FromVector({1.0f}), true);
  auto snap = Snapshot({a});
  a.mutable_value().at(0) = 5.0f;
  EXPECT_FLOAT_EQ(snap[0].at(0), 1.0f);
}

TEST(MetaInterpolateTest, MatchesEquation3) {
  // p <- snap + beta * (p - snap).
  Var p(Tensor::FromVector({10.0f}), true);
  std::vector<Tensor> snap{Tensor::FromVector({4.0f})};
  MetaInterpolate({p}, snap, 0.5f);
  EXPECT_FLOAT_EQ(p.value().at(0), 7.0f);
}

TEST(MetaInterpolateTest, BetaOneKeepsInnerResult) {
  Var p(Tensor::FromVector({10.0f}), true);
  std::vector<Tensor> snap{Tensor::FromVector({4.0f})};
  MetaInterpolate({p}, snap, 1.0f);
  EXPECT_FLOAT_EQ(p.value().at(0), 10.0f);  // degenerate: alternate training
}

TEST(MetaInterpolateTest, BetaZeroRestoresSnapshot) {
  Var p(Tensor::FromVector({10.0f}), true);
  std::vector<Tensor> snap{Tensor::FromVector({4.0f})};
  MetaInterpolate({p}, snap, 0.0f);
  EXPECT_FLOAT_EQ(p.value().at(0), 4.0f);
}

TEST(FlattenTest, RoundTrip) {
  std::vector<Tensor> tensors{Tensor::FromVector({1, 2}),
                              Tensor::FromMatrix({{3, 4}, {5, 6}})};
  Tensor flat = Flatten(tensors);
  EXPECT_EQ(flat.size(), 6);
  EXPECT_FLOAT_EQ(flat.at(2), 3.0f);
  auto back = Unflatten(flat, tensors);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(ops::AllClose(back[0], tensors[0]));
  EXPECT_TRUE(ops::AllClose(back[1], tensors[1]));
}

TEST(GradSnapshotTest, MissingGradsBecomeZeros) {
  Var a(Tensor::FromVector({1.0f}), true);
  auto grads = GradSnapshot({a});
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
}

TEST(SetGradsTest, OverwritesExisting) {
  Var a(Tensor::FromVector({1.0f}), true);
  a.ZeroGrad();
  a.mutable_grad().at(0) = 5.0f;
  SetGrads({a}, {Tensor::FromVector({2.0f})});
  EXPECT_FLOAT_EQ(a.grad().at(0), 2.0f);
}


/// Trains a two-layer ReLU net with `steps` optimizer steps and returns its
/// parameters. The inputs, shapes and step count are fixed, so two calls
/// differ only in the kernel path SetSimdEnabled selects. Neither layer's
/// size is a multiple of the 8-lane vector width, so the tails run too.
template <typename Opt>
std::vector<Tensor> TrainTinyNet(bool simd, int steps, float lr) {
  const bool prev = ops::simd::SetSimdEnabled(simd);
  Rng rng(5);
  auto random = [&rng](int64_t rows, int64_t cols) {
    Tensor t({rows, cols});
    for (int64_t i = 0; i < t.size(); ++i) {
      t.data()[i] = static_cast<float>(rng.Normal());
    }
    return t;
  };
  Var w1(random(13, 19), true);
  Var w2(random(19, 3), true);
  const Var x(random(16, 13));
  const Var y(random(16, 3));
  Opt opt(std::vector<Var>{w1, w2}, lr);
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Var h = autograd::Relu(autograd::MatMul(x, w1));
    Var out = autograd::MatMul(h, w2);
    autograd::Mean(autograd::Square(autograd::Sub(out, y))).Backward();
    opt.Step();
  }
  ops::simd::SetSimdEnabled(prev);
  return Snapshot({w1, w2});
}

template <typename Opt>
void ExpectSimdAndScalarTrainingBitEqual(float lr) {
  const std::vector<Tensor> scalar = TrainTinyNet<Opt>(false, 50, lr);
  const std::vector<Tensor> simd = TrainTinyNet<Opt>(true, 50, lr);
  ASSERT_EQ(scalar.size(), simd.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i].shape(), simd[i].shape());
    EXPECT_EQ(std::memcmp(scalar[i].data(), simd[i].data(),
                          static_cast<size_t>(scalar[i].size()) *
                              sizeof(float)),
              0)
        << "parameter " << i;
  }
  // The run must have moved the parameters, or the check is vacuous.
  const std::vector<Tensor> start = TrainTinyNet<Opt>(false, 0, lr);
  EXPECT_FALSE(ops::AllClose(start[0], scalar[0], 1e-6f));
}

TEST(AdamTest, SimdAndScalarStepsLeaveEqualBits) {
  ExpectSimdAndScalarTrainingBitEqual<Adam>(0.01f);
}

TEST(AdagradTest, SimdAndScalarStepsLeaveEqualBits) {
  ExpectSimdAndScalarTrainingBitEqual<Adagrad>(0.05f);
}

}  // namespace
}  // namespace optim
}  // namespace mamdr

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/random.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {
namespace {

Tensor RandTensor(const Shape& shape, Rng* rng, float scale = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Normal()) * scale;
  }
  return t;
}

TEST(VariableTest, LeafProperties) {
  Var v(Tensor({2, 2}, 1.0f), /*requires_grad=*/true, "w");
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.name(), "w");
  EXPECT_FALSE(v.has_grad());
  v.ZeroGrad();
  EXPECT_TRUE(v.has_grad());
  v.ClearGrad();
  EXPECT_FALSE(v.has_grad());
}

TEST(VariableTest, BackwardOnSimpleChain) {
  Var x(Tensor::FromVector({3.0f}), true);
  // y = (2x)^2 ; dy/dx = 8x = 24.
  Var y = Square(MulScalar(x, 2.0f));
  Var loss = Sum(y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 24.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Var x(Tensor::FromVector({1.0f}), true);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 6.0f);  // accumulated
}

TEST(VariableTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x*x) -> d/dx = 4x.
  Var x(Tensor::FromVector({2.0f}), true);
  Var a = Mul(x, x);
  Var loss = Sum(Add(a, a));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 8.0f);
}

TEST(VariableTest, NoGradThroughDetachedLeaf) {
  Var x(Tensor::FromVector({1.0f}), true);
  Var c(Tensor::FromVector({5.0f}), false);  // constant
  Var loss = Sum(Mul(x, c));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(NoGradGuardTest, DisablesRecording) {
  Var x(Tensor::FromVector({1.0f}), true);
  {
    NoGradGuard ng;
    Var y = MulScalar(x, 2.0f);
    EXPECT_EQ(y.node()->backward, nullptr);
  }
  Var y2 = MulScalar(x, 2.0f);
  EXPECT_NE(y2.node()->backward, nullptr);
}

// ---------------------------------------------------------------------------
// Gradient checks for every op, via central finite differences.
// ---------------------------------------------------------------------------

struct OpCase {
  std::string name;
  // Builds a scalar loss from the two parameter Vars.
  std::function<Var(const Var&, const Var&)> loss;
  Shape a_shape{2, 3};
  Shape b_shape{2, 3};
};

// Without a printer gtest lists the raw bytes of the case, including heap
// pointers, so the discovered test names would change from run to run.
void PrintTo(const OpCase& oc, std::ostream* os) { *os << oc.name; }

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, AnalyticMatchesNumeric) {
  const OpCase& oc = GetParam();
  Rng rng(1234);
  Var a(RandTensor(oc.a_shape, &rng, 0.5f), true, "a");
  Var b(RandTensor(oc.b_shape, &rng, 0.5f), true, "b");
  auto forward = [&]() { return oc.loss(a, b); };
  auto result = CheckGradients(forward, {a, b});
  EXPECT_TRUE(result.ok) << oc.name << " max_rel_err=" << result.max_rel_err;
}

// Weighted sums make the incoming gradient non-uniform, exercising the
// backward closures harder than plain Sum().
Var WeightedSum(const Var& x) {
  Tensor w(x.value().shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    w.at(i) = 0.3f + 0.1f * static_cast<float>(i % 5);
  }
  return Sum(Mul(x, Var(w)));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        OpCase{"add", [](const Var& a, const Var& b) {
                 return WeightedSum(Add(a, b));
               }},
        OpCase{"sub", [](const Var& a, const Var& b) {
                 return WeightedSum(Sub(a, b));
               }},
        OpCase{"mul", [](const Var& a, const Var& b) {
                 return WeightedSum(Mul(a, b));
               }},
        OpCase{"square", [](const Var& a, const Var&) {
                 return WeightedSum(Square(a));
               }},
        OpCase{"neg_addscalar", [](const Var& a, const Var&) {
                 return WeightedSum(AddScalar(Neg(a), 0.7f));
               }},
        OpCase{"mulscalar", [](const Var& a, const Var&) {
                 return WeightedSum(MulScalar(a, -1.3f));
               }},
        OpCase{"matmul",
               [](const Var& a, const Var& b) {
                 return WeightedSum(MatMul(a, b));
               },
               {2, 3},
               {3, 4}},
        OpCase{"add_row_vector",
               [](const Var& a, const Var& b) {
                 return WeightedSum(AddRowVector(a, b));
               },
               {3, 4},
               {1, 4}},
        OpCase{"mul_col_vector",
               [](const Var& a, const Var& b) {
                 return WeightedSum(MulColVector(a, b));
               },
               {3, 4},
               {3, 1}},
        OpCase{"rowwise_dot", [](const Var& a, const Var& b) {
                 return WeightedSum(RowwiseDot(a, b));
               }},
        OpCase{"relu", [](const Var& a, const Var&) {
                 // Shift away from 0 to avoid kinks in the numeric check.
                 return WeightedSum(Relu(AddScalar(a, 1.5f)));
               }},
        OpCase{"sigmoid", [](const Var& a, const Var&) {
                 return WeightedSum(Sigmoid(a));
               }},
        OpCase{"tanh", [](const Var& a, const Var&) {
                 return WeightedSum(Tanh(a));
               }},
        OpCase{"exp", [](const Var& a, const Var&) {
                 return WeightedSum(Exp(a));
               }},
        OpCase{"log", [](const Var& a, const Var&) {
                 return WeightedSum(Log(AddScalar(Square(a), 1.0f)));
               }},
        OpCase{"softmax", [](const Var& a, const Var&) {
                 return WeightedSum(SoftmaxRows(a));
               }},
        OpCase{"sum_cols", [](const Var& a, const Var&) {
                 return WeightedSum(SumCols(a));
               }},
        OpCase{"sum_rows", [](const Var& a, const Var&) {
                 return WeightedSum(SumRows(a));
               }},
        OpCase{"mean", [](const Var& a, const Var&) {
                 return Mean(Square(a));
               }},
        OpCase{"concat_slice", [](const Var& a, const Var& b) {
                 Var c = ConcatCols({a, b});
                 return WeightedSum(SliceCols(c, 1, 4));
               }},
        OpCase{"reshape", [](const Var& a, const Var&) {
                 return WeightedSum(Reshape(Square(a), {3, 2}));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& pinfo) {
      return pinfo.param.name;
    });

TEST(EmbeddingLookupTest, ForwardGathersRows) {
  Var table(Tensor::FromMatrix({{1, 2}, {3, 4}, {5, 6}}), true);
  Var out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_TRUE(ops::AllClose(out.value(),
                            Tensor::FromMatrix({{5, 6}, {1, 2}, {5, 6}})));
}

TEST(EmbeddingLookupTest, BackwardScatterAddsDuplicates) {
  Var table(Tensor({3, 2}), true);
  Var out = EmbeddingLookup(table, {1, 1, 0});
  Sum(out).Backward();
  // Row 1 selected twice -> grad 2, row 0 once -> 1, row 2 never -> 0.
  EXPECT_FLOAT_EQ(table.grad().at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(table.grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(table.grad().at(2, 0), 0.0f);
}

TEST(EmbeddingLookupTest, GradCheck) {
  Rng rng(55);
  Var table(RandTensor({5, 3}, &rng), true);
  std::vector<int64_t> ids{0, 2, 2, 4, 1};
  auto forward = [&]() {
    return Sum(Square(EmbeddingLookup(table, ids)));
  };
  auto result = CheckGradients(forward, {table});
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(1);
  Var x(Tensor({4, 4}, 1.0f), true);
  Var y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_TRUE(ops::AllClose(x.value(), y.value()));
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  Rng rng(7);
  Var x(Tensor({100, 100}, 1.0f), false);
  Var y = Dropout(x, 0.3f, &rng, /*training=*/true);
  // Inverted dropout: E[y] = 1. Mean over 10k elements should be close.
  EXPECT_NEAR(ops::Sum(y.value()) / 10000.0f, 1.0f, 0.03f);
}

TEST(BceTest, MatchesManualComputation) {
  Var logits(Tensor({2, 1}, std::vector<float>{0.0f, 2.0f}), true);
  Tensor labels({2, 1}, std::vector<float>{1.0f, 0.0f});
  Var loss = BceWithLogitsMean(logits, labels);
  const float l0 = std::log(2.0f);                    // -log(sigmoid(0))
  const float l1 = std::log(1.0f + std::exp(2.0f));   // -log(1-sigmoid(2))
  EXPECT_NEAR(loss.value().at(0), (l0 + l1) / 2.0f, 1e-5f);
}

TEST(BceTest, GradCheck) {
  Rng rng(99);
  Var logits(RandTensor({6, 1}, &rng), true);
  Tensor labels({6, 1});
  for (int64_t i = 0; i < 6; ++i) labels.at(i) = i % 2 ? 1.0f : 0.0f;
  auto forward = [&]() { return BceWithLogitsMean(logits, labels); };
  auto result = CheckGradients(forward, {logits});
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(BceTest, ExtremeLogitsAreFinite) {
  Var logits(Tensor({2, 1}, std::vector<float>{100.0f, -100.0f}), true);
  Tensor labels({2, 1}, std::vector<float>{0.0f, 1.0f});
  Var loss = BceWithLogitsMean(logits, labels);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
  loss.Backward();
  EXPECT_TRUE(std::isfinite(logits.grad().at(0)));
}

TEST(SigmoidValueTest, StableAtExtremes) {
  Tensor logits = Tensor::FromVector({-80.0f, 0.0f, 80.0f});
  Tensor p = SigmoidValue(logits);
  EXPECT_NEAR(p.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(p.at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(p.at(2), 1.0f, 1e-6f);
}

}  // namespace
}  // namespace autograd
}  // namespace mamdr

#include <algorithm>
#include <cmath>
#include <cstring>
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

// ---------------------------------------------------------------------------
// Raw-pointer kernels vs checked references. Each op's element loops read and
// write through data(); the references below are the same loops written with
// checked Tensor::at, with the same float expressions in the same order. The
// forward value and every parent gradient must match to the bit. Gradients
// reach the parents through the real backward closure, once into a fresh
// buffer and once into a buffer that already holds a gradient.
// ---------------------------------------------------------------------------

const Shape kOddShapes[] = {{1, 1}, {3, 5}, {256, 37}};

// Normal values with exact +0 and -0 mixed in, so branches on x > 0 and
// x >= 0 see both sides and the ties.
Tensor OddValues(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = RandTensor(shape, &rng, 2.0f);
  for (int64_t i = 0; i < t.size(); i += 7) t.at(i) = i % 2 ? -0.0f : 0.0f;
  return t;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (want.size() == 0) return;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0)
      << what;
}

// A trainable leaf whose gradient buffer is either absent or holds an
// earlier gradient, accumulated from zero as backward passes do. Such a
// buffer never holds -0.0f (+0 + -0 is +0), which SliceCols relies on.
Var Leaf(const Tensor& value, bool seeded, uint64_t seed) {
  Var v(value.Clone(), /*requires_grad=*/true);
  if (seeded) {
    v.ZeroGrad();
    ops::AxpyInPlace(&v.mutable_grad(), OddValues(value.shape(), seed), 1.0f);
  }
  return v;
}

// What AccumGrad made of `contributions` starting from `leaf`'s gradient
// before the backward pass (or from zeros when it had none).
Tensor RefAccum(const Tensor& before, const Shape& shape,
                const std::vector<Tensor>& contributions) {
  Tensor acc = before.empty() ? Tensor(shape) : before.Clone();
  for (const auto& c : contributions) ops::AxpyInPlace(&acc, c, 1.0f);
  return acc;
}

// Runs y's backward closure once with upstream gradient g.
void RunBackward(const Var& y, const Tensor& g) {
  ASSERT_NE(y.node()->backward, nullptr);
  y.node()->backward(g);
}

struct UnaryCase {
  std::string name;
  std::function<Var(const Var&)> op;
  std::function<Tensor(const Tensor& x)> ref_forward;
  // Contribution to d/dx for upstream g; `out` is ref_forward(x).
  std::function<Tensor(const Tensor& x, const Tensor& out, const Tensor& g)>
      ref_grad;
};

float RefSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

std::vector<UnaryCase> UnaryCases() {
  std::vector<UnaryCase> cases;
  cases.push_back(
      {"relu", [](const Var& x) { return Relu(x); },
       [](const Tensor& x) {
         Tensor out(x.shape());
         for (int64_t i = 0; i < out.size(); ++i) {
           out.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
         }
         return out;
       },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         Tensor gi(g.shape());
         for (int64_t i = 0; i < g.size(); ++i) {
           gi.at(i) = x.at(i) > 0.0f ? g.at(i) : 0.0f;
         }
         return gi;
       }});
  cases.push_back(
      {"sigmoid", [](const Var& x) { return Sigmoid(x); },
       [](const Tensor& x) {
         Tensor out(x.shape());
         for (int64_t i = 0; i < out.size(); ++i) {
           out.at(i) = RefSigmoid(x.at(i));
         }
         return out;
       },
       [](const Tensor&, const Tensor& out, const Tensor& g) {
         Tensor gi(g.shape());
         for (int64_t i = 0; i < g.size(); ++i) {
           const float s = out.at(i);
           gi.at(i) = g.at(i) * s * (1.0f - s);
         }
         return gi;
       }});
  cases.push_back(
      {"tanh", [](const Var& x) { return Tanh(x); },
       [](const Tensor& x) {
         Tensor out(x.shape());
         for (int64_t i = 0; i < out.size(); ++i) {
           out.at(i) = std::tanh(x.at(i));
         }
         return out;
       },
       [](const Tensor&, const Tensor& out, const Tensor& g) {
         Tensor gi(g.shape());
         for (int64_t i = 0; i < g.size(); ++i) {
           gi.at(i) = g.at(i) * (1.0f - out.at(i) * out.at(i));
         }
         return gi;
       }});
  cases.push_back(
      {"exp", [](const Var& x) { return Exp(x); },
       [](const Tensor& x) {
         Tensor out(x.shape());
         for (int64_t i = 0; i < out.size(); ++i) out.at(i) = std::exp(x.at(i));
         return out;
       },
       [](const Tensor&, const Tensor& out, const Tensor& g) {
         return ops::Mul(g, out);
       }});
  cases.push_back(
      {"log", [](const Var& x) { return Log(x, 1e-3f); },
       [](const Tensor& x) {
         Tensor out(x.shape());
         for (int64_t i = 0; i < out.size(); ++i) {
           out.at(i) = std::log(std::max(x.at(i), 1e-3f));
         }
         return out;
       },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         Tensor gi(g.shape());
         for (int64_t i = 0; i < g.size(); ++i) {
           gi.at(i) = g.at(i) / std::max(x.at(i), 1e-3f);
         }
         return gi;
       }});
  cases.push_back(
      {"softmax_rows", [](const Var& x) { return SoftmaxRows(x); },
       [](const Tensor& x) {
         const int64_t m = x.rows(), n = x.cols();
         Tensor out({m, n});
         for (int64_t i = 0; i < m; ++i) {
           float mx = x.at(i, 0);
           for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x.at(i, j));
           float denom = 0.0f;
           for (int64_t j = 0; j < n; ++j) {
             const float e = std::exp(x.at(i, j) - mx);
             out.at(i, j) = e;
             denom += e;
           }
           for (int64_t j = 0; j < n; ++j) out.at(i, j) /= denom;
         }
         return out;
       },
       [](const Tensor&, const Tensor& out, const Tensor& g) {
         const int64_t m = out.rows(), n = out.cols();
         Tensor gi({m, n});
         for (int64_t i = 0; i < m; ++i) {
           float dot = 0.0f;
           for (int64_t k = 0; k < n; ++k) dot += g.at(i, k) * out.at(i, k);
           for (int64_t j = 0; j < n; ++j) {
             gi.at(i, j) = out.at(i, j) * (g.at(i, j) - dot);
           }
         }
         return gi;
       }});
  cases.push_back(
      {"sum_cols", [](const Var& x) { return SumCols(x); },
       [](const Tensor& x) { return ops::SumCols(x); },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         Tensor gi(x.shape());
         for (int64_t i = 0; i < x.rows(); ++i) {
           for (int64_t j = 0; j < x.cols(); ++j) gi.at(i, j) = g.at(i, 0);
         }
         return gi;
       }});
  cases.push_back(
      {"sum_rows", [](const Var& x) { return SumRows(x); },
       [](const Tensor& x) { return ops::SumRows(x); },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         Tensor gi(x.shape());
         for (int64_t i = 0; i < x.rows(); ++i) {
           for (int64_t j = 0; j < x.cols(); ++j) gi.at(i, j) = g.at(0, j);
         }
         return gi;
       }});
  cases.push_back(
      {"slice_cols", [](const Var& x) {
         return SliceCols(x, x.value().cols() / 3, x.value().cols() / 2);
       },
       [](const Tensor& x) {
         const int64_t start = x.cols() / 3, len = x.cols() / 2;
         Tensor out({x.rows(), len});
         for (int64_t i = 0; i < x.rows(); ++i) {
           for (int64_t j = 0; j < len; ++j) out.at(i, j) = x.at(i, start + j);
         }
         return out;
       },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         const int64_t start = x.cols() / 3, len = x.cols() / 2;
         Tensor gi(x.shape());
         for (int64_t i = 0; i < x.rows(); ++i) {
           for (int64_t j = 0; j < len; ++j) gi.at(i, start + j) = g.at(i, j);
         }
         return gi;
       }});
  cases.push_back(
      {"sum", [](const Var& x) { return Sum(x); },
       [](const Tensor& x) { return Tensor({1}, ops::Sum(x)); },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         return Tensor(x.shape(), g.at(0));
       }});
  cases.push_back(
      {"mean", [](const Var& x) { return Mean(x); },
       [](const Tensor& x) {
         const float inv = 1.0f / static_cast<float>(x.size());
         return Tensor({1}, ops::Sum(x) * inv);
       },
       [](const Tensor& x, const Tensor&, const Tensor& g) {
         const float inv = 1.0f / static_cast<float>(x.size());
         return Tensor(x.shape(), g.at(0) * inv);
       }});
  return cases;
}

TEST(RawKernelTest, UnaryOpsMatchCheckedReference) {
  for (const auto& c : UnaryCases()) {
    for (const Shape& shape : kOddShapes) {
      for (bool seeded : {false, true}) {
        const std::string what = c.name + " " + ShapeToString(shape) +
                                 (seeded ? " seeded" : " fresh");
        // slice_cols needs a nonzero offset: 1 column has none.
        const Shape s = c.name == "slice_cols" && shape[1] == 1
                            ? Shape{shape[0], 3}
                            : shape;
        const Tensor xv = OddValues(s, 11);
        Var x = Leaf(xv, seeded, 12);
        const Tensor before = seeded ? x.grad().Clone() : Tensor();
        Var y = c.op(x);
        const Tensor want = c.ref_forward(xv);
        ExpectBitEqual(y.value(), want, what + " forward");
        const Tensor g = OddValues(y.value().shape(), 13);
        RunBackward(y, g);
        ExpectBitEqual(x.grad(), RefAccum(before, s, {c.ref_grad(xv, want, g)}),
                       what + " grad");
      }
    }
  }
}

TEST(RawKernelTest, SigmoidValueMatchesCheckedReference) {
  for (const Shape& shape : kOddShapes) {
    const Tensor x = OddValues(shape, 21);
    Tensor want(shape);
    for (int64_t i = 0; i < want.size(); ++i) want.at(i) = RefSigmoid(x.at(i));
    ExpectBitEqual(SigmoidValue(x), want, ShapeToString(shape));
  }
}

// The columns [col0, col0 + w) of g, as ConcatCols backward used to cut them.
Tensor RefColumns(const Tensor& g, int64_t col0, int64_t w) {
  Tensor gi({g.rows(), w});
  for (int64_t i = 0; i < g.rows(); ++i) {
    for (int64_t j = 0; j < w; ++j) gi.at(i, j) = g.at(i, col0 + j);
  }
  return gi;
}

TEST(RawKernelTest, ConcatColsMatchesCheckedReference) {
  for (const int64_t m : {int64_t{1}, int64_t{3}, int64_t{256}}) {
    for (bool seeded : {false, true}) {
      const std::string what = "m=" + std::to_string(m);
      const std::vector<int64_t> widths{1, 16, 7};
      std::vector<Tensor> values;
      std::vector<Tensor> before;
      std::vector<Var> parts;
      for (size_t k = 0; k < widths.size(); ++k) {
        values.push_back(OddValues({m, widths[k]}, 30 + k));
        parts.push_back(Leaf(values.back(), seeded, 40 + k));
        before.push_back(seeded ? parts.back().grad().Clone() : Tensor());
      }
      Var y = ConcatCols(parts);
      Tensor want({m, 24});
      int64_t off = 0;
      for (size_t k = 0; k < widths.size(); ++k) {
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < widths[k]; ++j) {
            want.at(i, off + j) = values[k].at(i, j);
          }
        }
        off += widths[k];
      }
      ExpectBitEqual(y.value(), want, what + " forward");
      const Tensor g = OddValues({m, 24}, 50);
      RunBackward(y, g);
      off = 0;
      for (size_t k = 0; k < widths.size(); ++k) {
        ExpectBitEqual(parts[k].grad(),
                       RefAccum(before[k], {m, widths[k]},
                                {RefColumns(g, off, widths[k])}),
                       what + " part " + std::to_string(k));
        off += widths[k];
      }
    }
  }
}

TEST(RawKernelTest, ConcatColsParentUsedTwiceSumsBothSlices) {
  for (bool seeded : {false, true}) {
    const Tensor xv = OddValues({256, 37}, 60);
    Var x = Leaf(xv, seeded, 61);
    const Tensor before = seeded ? x.grad().Clone() : Tensor();
    Var y = ConcatCols({x, x});
    const Tensor g = OddValues({256, 74}, 62);
    RunBackward(y, g);
    ExpectBitEqual(x.grad(),
                   RefAccum(before, {256, 37},
                            {RefColumns(g, 0, 37), RefColumns(g, 37, 37)}),
                   seeded ? "seeded" : "fresh");
  }
}

TEST(RawKernelTest, ConstantParentGetsNoGradientBuffer) {
  Var x = Leaf(OddValues({3, 5}, 70), false, 0);
  Var c(OddValues({3, 16}, 71), /*requires_grad=*/false);
  Var z = Leaf(OddValues({3, 7}, 72), false, 0);
  Var y = ConcatCols({x, c, z});
  const Tensor g = OddValues({3, 28}, 73);
  RunBackward(y, g);
  EXPECT_FALSE(c.has_grad());
  EXPECT_EQ(GradBuffer(c.node(), c.shape()), nullptr);
  ExpectBitEqual(x.grad(), RefAccum(Tensor(), {3, 5}, {RefColumns(g, 0, 5)}),
                 "x");
  ExpectBitEqual(z.grad(), RefAccum(Tensor(), {3, 7}, {RefColumns(g, 21, 7)}),
                 "z");
  EXPECT_EQ(Relu(c).node()->backward, nullptr);  // nothing to track
}

TEST(RawKernelTest, RowwiseDotMatchesCheckedReference) {
  for (const Shape& shape : kOddShapes) {
    const Tensor av = OddValues(shape, 80), bv = OddValues(shape, 81);
    Var y = RowwiseDot(Var(av, true), Var(bv, true));
    Tensor want({shape[0], 1});
    for (int64_t i = 0; i < shape[0]; ++i) {
      float acc = 0.0f;
      for (int64_t j = 0; j < shape[1]; ++j) acc += av.at(i, j) * bv.at(i, j);
      want.at(i, 0) = acc;
    }
    ExpectBitEqual(y.value(), want, ShapeToString(shape));
  }
}

TEST(RawKernelTest, BceWithLogitsMeanMatchesCheckedReference) {
  for (const int64_t m : {int64_t{1}, int64_t{3}, int64_t{256}}) {
    for (bool seeded : {false, true}) {
      const Tensor xv = OddValues({m, 1}, 90);
      Tensor labels({m, 1});
      for (int64_t i = 0; i < m; ++i) labels.at(i) = i % 3 ? 0.0f : 1.0f;
      Var x = Leaf(xv, seeded, 91);
      const Tensor before = seeded ? x.grad().Clone() : Tensor();
      Var loss = BceWithLogitsMean(x, labels);
      double acc = 0.0;
      for (int64_t i = 0; i < m; ++i) {
        const float v = xv.at(i), l = labels.at(i);
        acc += std::max(v, 0.0f) - v * l + std::log1p(std::exp(-std::fabs(v)));
      }
      const float mean = static_cast<float>(acc / static_cast<double>(m));
      ExpectBitEqual(loss.value(), Tensor({1}, mean), "forward");
      const Tensor g({1}, 0.75f);
      RunBackward(loss, g);
      Tensor gi({m, 1});
      const float scale = g.at(0) / static_cast<float>(m);
      for (int64_t i = 0; i < m; ++i) {
        gi.at(i) = scale * (RefSigmoid(xv.at(i)) - labels.at(i));
      }
      ExpectBitEqual(x.grad(), RefAccum(before, {m, 1}, {gi}), "grad");
    }
  }
}

TEST(RawKernelTest, DropoutMaskMatchesCheckedReference) {
  for (const Shape& shape : kOddShapes) {
    const Tensor xv = OddValues(shape, 100);
    Rng rng(101), ref_rng(101);
    Var x(xv, true);
    Var y = Dropout(x, 0.3f, &rng, /*training=*/true);
    const float scale = 1.0f / (1.0f - 0.3f);
    Tensor mask(shape);
    for (int64_t i = 0; i < mask.size(); ++i) {
      mask.at(i) = ref_rng.Bernoulli(0.3f) ? 0.0f : scale;
    }
    ExpectBitEqual(y.value(), ops::Mul(xv, mask), ShapeToString(shape));
  }
}

TEST(RawKernelTest, EmbeddingLookupScatterMatchesCheckedReference) {
  for (bool seeded : {false, true}) {
    const Tensor tv = OddValues({37, 16}, 110);
    Var table = Leaf(tv, seeded, 111);
    const Tensor before = seeded ? table.grad().Clone() : Tensor();
    const std::vector<int64_t> ids{36, 0, 5, 5, 36, 17, 0};
    Var y = EmbeddingLookup(table, ids);
    const Tensor g = OddValues({7, 16}, 112);
    RunBackward(y, g);
    Tensor want = before.empty() ? Tensor({37, 16}) : before.Clone();
    for (size_t i = 0; i < ids.size(); ++i) {
      for (int64_t j = 0; j < 16; ++j) {
        want.at(ids[i], j) += g.at(static_cast<int64_t>(i), j);
      }
    }
    ExpectBitEqual(table.grad(), want, seeded ? "seeded" : "fresh");
  }
}

// EmbeddingConcat against ConcatCols of one EmbeddingLookup per table,
// both run through the tape with upstream gradient g (Sum(y * g) seeds
// dL/dy = 1 * g, which keeps every bit of g, -0 included).
void ExpectEmbeddingConcatMatchesUnfused(
    const std::vector<Tensor>& values, const std::vector<bool>& trainable,
    const std::vector<std::vector<int64_t>>& ids, bool seeded,
    const std::string& what) {
  std::vector<Var> fused_tables, unfused_tables;
  for (size_t k = 0; k < values.size(); ++k) {
    for (std::vector<Var>* tables : {&fused_tables, &unfused_tables}) {
      tables->push_back(trainable[k] ? Leaf(values[k], seeded, 200 + k)
                                     : Var(values[k].Clone()));
    }
  }
  std::vector<Var> lookups;
  for (size_t k = 0; k < values.size(); ++k) {
    lookups.push_back(EmbeddingLookup(unfused_tables[k], ids[k]));
  }
  Var unfused = ConcatCols(lookups);
  Var fused = EmbeddingConcat(fused_tables, ids);
  ExpectBitEqual(fused.value(), unfused.value(), what + " forward");
  const Var g(OddValues(unfused.value().shape(), 300));
  Sum(Mul(unfused, g)).Backward();
  Sum(Mul(fused, g)).Backward();
  for (size_t k = 0; k < values.size(); ++k) {
    const std::string table = what + " table " + std::to_string(k);
    ASSERT_EQ(fused_tables[k].has_grad(), unfused_tables[k].has_grad())
        << table;
    EXPECT_EQ(fused_tables[k].has_grad(), static_cast<bool>(trainable[k]))
        << table;
    if (trainable[k]) {
      ExpectBitEqual(fused_tables[k].grad(), unfused_tables[k].grad(), table);
    }
  }
}

TEST(EmbeddingConcatTest, MatchesConcatOfLookupsBitForBit) {
  // Four fields of different vocabularies and widths, as FeatureEncoder
  // has (but with unequal widths to cover the column offsets).
  const std::vector<Tensor> values = {OddValues({37, 16}, 1),
                                      OddValues({11, 16}, 2),
                                      OddValues({5, 8}, 3),
                                      OddValues({3, 4}, 4)};
  const std::vector<bool> all = {true, true, true, true};
  const std::vector<std::vector<int64_t>> repeated = {
      {36, 0, 5, 5, 36, 17, 0},
      {1, 1, 1, 10, 0, 3, 1},
      {4, 0, 4, 4, 2, 1, 0},
      {2, 2, 2, 2, 0, 1, 2}};
  for (bool seeded : {false, true}) {
    const std::string tag = seeded ? " (seeded)" : " (fresh)";
    ExpectEmbeddingConcatMatchesUnfused(values, all, repeated, seeded,
                                        "repeated ids" + tag);
    ExpectEmbeddingConcatMatchesUnfused(values, {true, false, true, true},
                                        repeated, seeded,
                                        "frozen table" + tag);
    ExpectEmbeddingConcatMatchesUnfused(values, all, {{9}, {10}, {0}, {2}},
                                        seeded, "B = 1" + tag);
  }
}

TEST(EmbeddingConcatTest, GradCheck) {
  Rng rng(56);
  const std::vector<Var> tables = {Var(RandTensor({5, 3}, &rng), true),
                                   Var(RandTensor({4, 2}, &rng), true)};
  const std::vector<std::vector<int64_t>> ids = {{0, 2, 2, 4, 1},
                                                 {3, 3, 0, 1, 3}};
  auto forward = [&]() { return Sum(Square(EmbeddingConcat(tables, ids))); };
  auto result = CheckGradients(forward, tables);
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(EmbeddingConcatDeathTest, OutOfRangeIdAborts) {
  const Var table(Tensor({3, 2}), true);
  const Var other(Tensor({4, 2}), true);
  EXPECT_DEATH(EmbeddingConcat({table, other}, {{0, 3}, {0, 1}}), "");
  EXPECT_DEATH(EmbeddingConcat({table, other}, {{0, 1}, {-1, 1}}), "");
  EXPECT_DEATH(EmbeddingLookup(table, {3}), "");
}

}  // namespace
}  // namespace autograd
}  // namespace mamdr

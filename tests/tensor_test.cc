#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tensor/step_buffers.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(TensorTest, FromMatrixLayout) {
  Tensor t = Tensor::FromMatrix({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
}

TEST(TensorTest, CopySharesStorageCloneDoesNot) {
  Tensor a({2, 2}, 1.0f);
  Tensor b = a;
  Tensor c = a.Clone();
  EXPECT_TRUE(a.SharesStorageWith(b));
  EXPECT_FALSE(a.SharesStorageWith(c));
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 9.0f);
  EXPECT_EQ(c.at(0), 1.0f);
}

TEST(TensorTest, ReshapedSharesStorage) {
  Tensor a({2, 3}, 1.0f);
  Tensor r = a.Reshaped({3, 2});
  EXPECT_TRUE(a.SharesStorageWith(r));
  EXPECT_EQ(r.rows(), 3);
}

TEST(TensorTest, ShapeToString) {
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
}

TEST(TensorOpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromMatrix({{1, 2}, {3, 4}});
  Tensor b = Tensor::FromMatrix({{5, 6}, {7, 8}});
  Tensor c = ops::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

// Property sweep: transposed-variant matmuls must agree with the plain
// matmul applied to explicitly transposed inputs.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, TransVariantsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  auto randt = [&](int64_t r, int64_t c) {
    Tensor t({r, c});
    for (int64_t i = 0; i < t.size(); ++i) {
      t.at(i) = static_cast<float>(rng.Normal());
    }
    return t;
  };
  Tensor a = randt(m, k), b = randt(k, n);
  Tensor ref = ops::MatMul(a, b);
  EXPECT_TRUE(ops::AllClose(
      ops::MatMulTransA(ops::Transpose(a), b), ref, 1e-4f));
  EXPECT_TRUE(ops::AllClose(
      ops::MatMulTransB(a, ops::Transpose(b)), ref, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(1, 16, 3),
                                           std::make_tuple(13, 7, 5)));

TEST(TensorOpsTest, ElementwiseOps) {
  Tensor a = Tensor::FromVector({1, 2, 3});
  Tensor b = Tensor::FromVector({4, 5, 6});
  EXPECT_TRUE(ops::AllClose(ops::Add(a, b), Tensor::FromVector({5, 7, 9})));
  EXPECT_TRUE(ops::AllClose(ops::Sub(a, b), Tensor::FromVector({-3, -3, -3})));
  EXPECT_TRUE(ops::AllClose(ops::Mul(a, b), Tensor::FromVector({4, 10, 18})));
  EXPECT_TRUE(
      ops::AllClose(ops::Axpy(a, b, 2.0f), Tensor::FromVector({9, 12, 15})));
  EXPECT_TRUE(
      ops::AllClose(ops::AddScalar(a, 1.0f), Tensor::FromVector({2, 3, 4})));
  EXPECT_TRUE(
      ops::AllClose(ops::MulScalar(a, -1.0f), Tensor::FromVector({-1, -2, -3})));
}

TEST(TensorOpsTest, InPlaceOps) {
  Tensor y = Tensor::FromVector({1, 1});
  Tensor x = Tensor::FromVector({2, 3});
  ops::AxpyInPlace(&y, x, 0.5f);
  EXPECT_TRUE(ops::AllClose(y, Tensor::FromVector({2.0f, 2.5f})));
  ops::ScaleInPlace(&y, 2.0f);
  EXPECT_TRUE(ops::AllClose(y, Tensor::FromVector({4.0f, 5.0f})));
}

TEST(TensorOpsTest, Broadcasts) {
  Tensor a = Tensor::FromMatrix({{1, 2}, {3, 4}});
  Tensor row = Tensor::FromVector({10, 20});
  Tensor col = Tensor::FromVector({2, 3});
  EXPECT_TRUE(ops::AllClose(ops::AddRowVector(a, row),
                            Tensor::FromMatrix({{11, 22}, {13, 24}})));
  EXPECT_TRUE(ops::AllClose(ops::MulColVector(a, col),
                            Tensor::FromMatrix({{2, 4}, {9, 12}})));
}

TEST(TensorOpsTest, Reductions) {
  Tensor a = Tensor::FromMatrix({{1, 2}, {3, 4}});
  EXPECT_TRUE(ops::AllClose(ops::SumRows(a), Tensor({1, 2}, {4, 6})));
  EXPECT_TRUE(ops::AllClose(ops::SumCols(a), Tensor({2, 1}, {3, 7})));
  EXPECT_FLOAT_EQ(ops::Sum(a), 10.0f);
  EXPECT_FLOAT_EQ(ops::Dot(a, a), 30.0f);
  EXPECT_FLOAT_EQ(ops::SquaredNorm(a), 30.0f);
  EXPECT_FLOAT_EQ(ops::MaxAbs(Tensor::FromVector({-5, 3})), 5.0f);
}

TEST(TensorOpsTest, AllCloseRespectsShapeAndTolerance) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({1, 2.0001f});
  Tensor c({1, 2}, std::vector<float>{1, 2});
  EXPECT_TRUE(ops::AllClose(a, b, 1e-3f));
  EXPECT_FALSE(ops::AllClose(a, b, 1e-6f));
  EXPECT_FALSE(ops::AllClose(a, c));  // different shape
}

TEST(StepBuffersTest, CountsHeapAllocationsOfThisThread) {
  const int64_t start = ThreadTensorAllocations();
  Tensor a({4, 4});
  Tensor b({2}, 1.0f);
  Tensor c = Tensor::Uninit({3});
  Tensor d = a.Clone();
  Tensor e = Tensor::FromVector({1.0f, 2.0f});
  Tensor shared = a;  // a copy shares, it allocates nothing
  EXPECT_EQ(ThreadTensorAllocations() - start, 5);
}

TEST(StepBuffersTest, ReusesAFreeBufferAtTheSamePosition) {
  StepBuffers buffers;
  const float* first = nullptr;
  {
    StepScope step(&buffers);
    Tensor t({8}, 3.0f);
    first = t.data();
  }
  const int64_t start = ThreadTensorAllocations();
  {
    StepScope step(&buffers);
    Tensor zeroed({2, 4});  // same position, same room: the same buffer
    EXPECT_EQ(zeroed.data(), first);
    for (int64_t i = 0; i < zeroed.size(); ++i) EXPECT_EQ(zeroed.at(i), 0.0f);
    Tensor next = Tensor::Uninit({5});  // a new position: allocated
    EXPECT_NE(next.data(), first);
  }
  EXPECT_EQ(ThreadTensorAllocations() - start, 1);
  EXPECT_EQ(buffers.cached_buffers(), 2);
  EXPECT_EQ(buffers.stats().steps, 2);
  EXPECT_EQ(buffers.stats().allocations, 2);
}

TEST(StepBuffersTest, NeverHandsOutAHeldOrTooSmallBuffer) {
  StepBuffers buffers;
  Tensor held;
  {
    StepScope step(&buffers);
    held = Tensor({4}, 7.0f);
    Tensor small({2});
  }
  {
    StepScope step(&buffers);
    Tensor t({4});  // position 0 is still held: a fresh buffer
    EXPECT_FALSE(t.SharesStorageWith(held));
    Tensor big({16});  // position 1 is too small: a fresh buffer
    EXPECT_EQ(big.size(), 16);
  }
  for (int64_t i = 0; i < held.size(); ++i) EXPECT_EQ(held.at(i), 7.0f);
  EXPECT_EQ(buffers.stats().allocations, 4);
  // Release drops every cached buffer.
  buffers.Release();
  EXPECT_EQ(buffers.cached_buffers(), 0);
}

TEST(StepBuffersTest, SteadyAllocationsCountOnlyAfterTheFirstPass) {
  StepBuffers buffers;
  {
    StepScope step(&buffers);
    Tensor t({4});
  }
  buffers.EndPass();
  {
    StepScope step(&buffers);
    Tensor same({4});
    Tensor extra({4});
  }
  EXPECT_EQ(buffers.stats().allocations, 2);
  EXPECT_EQ(buffers.stats().steady_allocations, 1);
  buffers.Release();  // the next pass is a first pass again
  {
    StepScope step(&buffers);
    Tensor t({4});
  }
  EXPECT_EQ(buffers.stats().steady_allocations, 1);
}

}  // namespace
}  // namespace mamdr

// Bitwise-equivalence tests for the runtime-dispatched SIMD kernels
// (tensor/simd.h). The dispatch contract is that the AVX2 bodies are
// BIT-IDENTICAL to their scalar references on every input — not "close",
// identical — so every comparison here is EXPECT_EQ on float bits, no
// tolerance anywhere. On machines without AVX2 the dispatched kernel IS
// the scalar body and the tests degenerate to self-comparison (still
// useful: they pin the kill-switch and dispatch semantics).
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace {

namespace simd = ops::simd;

/// Deterministic mix of magnitudes: rounding differences between a fused
/// and unfused mul+add (or a reordered sum) show up fastest when terms
/// span scales and signs.
std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    const float mag = static_cast<float>(
        std::ldexp(rng->Uniform(0.5, 1.0),
                   static_cast<int>(rng->UniformInt(20)) - 10));
    x = rng->Uniform() < 0.5 ? -mag : mag;
  }
  return v;
}

/// Restores the SIMD kill switch on scope exit so one test can't poison
/// the rest of the binary.
struct SimdGuard {
  bool prev = simd::SimdEnabled();
  ~SimdGuard() { simd::SetSimdEnabled(prev); }
};

TEST(SimdDispatchTest, KillSwitchForcesScalar) {
  SimdGuard guard;
  const bool was = simd::SetSimdEnabled(false);
  EXPECT_EQ(was, guard.prev);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_FALSE(simd::SimdEnabled());
  EXPECT_FALSE(simd::SetSimdEnabled(true));  // returns previous value
  EXPECT_TRUE(simd::SimdEnabled());
}

TEST(SimdDispatchTest, ActiveNeverExceedsCompiled) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::CompiledLevel()));
}

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

/// Runs the panel kernel both ways over a fresh zeroed C and diffs bits.
void ExpectPanelBitwise(int64_t m, int64_t k, int64_t n, int64_t sa_i,
                        int64_t sa_k, Rng* rng) {
  const auto a = RandomVec(m * k, rng);
  const auto b = RandomVec(k * n, rng);
  std::vector<float> c_scalar(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_simd(c_scalar);
  simd::internal::MatMulPanelScalar(a.data(), sa_i, sa_k, b.data(),
                                    c_scalar.data(), k, n, 0, m);
  simd::MatMulPanel(a.data(), sa_i, sa_k, b.data(), c_simd.data(), k, n, 0,
                    m);
  ASSERT_EQ(std::memcmp(c_scalar.data(), c_simd.data(),
                        c_scalar.size() * sizeof(float)),
            0)
      << "m=" << m << " k=" << k << " n=" << n << " sa_i=" << sa_i
      << " sa_k=" << sa_k;
}

TEST(SimdMatMulPanelTest, OddShapesMatchScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(31);
  // Shapes straddling every blocking boundary: the 8-wide vector width,
  // the 32-column j-tile, the 32-row/64-k cache blocks, plus degenerate
  // single-row/col/k cases.
  const int64_t shapes[][3] = {
      {1, 1, 1},  {1, 7, 9},   {3, 5, 7},   {7, 64, 32}, {8, 8, 8},
      {9, 65, 33}, {32, 64, 32}, {33, 66, 37}, {2, 3, 70}, {40, 1, 40},
  };
  for (const auto& s : shapes) {
    // Plain layout (sa_i=k, sa_k=1) and transposed-A layout (sa_i=1,
    // sa_k=m) — both strides the public MatMul/MatMulTransA entry points
    // actually pass.
    ExpectPanelBitwise(s[0], s[1], s[2], s[1], 1, &rng);
    ExpectPanelBitwise(s[0], s[1], s[2], 1, s[0], &rng);
  }
}

TEST(SimdMatMulPanelTest, RowRangeWritesOnlyItsRows) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(37);
  const int64_t m = 12, k = 20, n = 34;
  const auto a = RandomVec(m * k, &rng);
  const auto b = RandomVec(k * n, &rng);
  std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
  simd::MatMulPanel(a.data(), k, 1, b.data(), c.data(), k, n, 3, 7);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float v = c[static_cast<size_t>(i * n + j)];
      if (i < 3 || i >= 7) {
        EXPECT_EQ(v, -1.0f) << i << "," << j;
      }
    }
  }
}

TEST(SimdTensorOpsTest, MatMulIdenticalWithSimdOnAndOff) {
  SimdGuard guard;
  Rng rng(43);
  for (const auto& s : {std::vector<int64_t>{5, 9, 13},
                        std::vector<int64_t>{17, 33, 29},
                        std::vector<int64_t>{64, 64, 64}}) {
    Tensor a({s[0], s[1]});
    Tensor b({s[1], s[2]});
    for (int64_t i = 0; i < a.size(); ++i) {
      a.at(i) = static_cast<float>(rng.Normal());
    }
    for (int64_t i = 0; i < b.size(); ++i) {
      b.at(i) = static_cast<float>(rng.Normal());
    }
    simd::SetSimdEnabled(true);
    Tensor c_on = ops::MatMul(a, b);
    Tensor ta_on = ops::MatMulTransA(ops::Transpose(a), b);
    simd::SetSimdEnabled(false);
    Tensor c_off = ops::MatMul(a, b);
    Tensor ta_off = ops::MatMulTransA(ops::Transpose(a), b);
    ASSERT_EQ(std::memcmp(c_on.data(), c_off.data(),
                          static_cast<size_t>(c_on.size()) * sizeof(float)),
              0);
    ASSERT_EQ(std::memcmp(ta_on.data(), ta_off.data(),
                          static_cast<size_t>(ta_on.size()) * sizeof(float)),
              0);
    // And the dispatched result still equals the naive reference in exact
    // float math terms for the blocked contract (same chains, same order).
    Tensor naive = ops::MatMulNaive(a, b);
    ASSERT_EQ(std::memcmp(c_on.data(), naive.data(),
                          static_cast<size_t>(naive.size()) * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace mamdr

// Bitwise-equivalence tests for the runtime-dispatched SIMD kernels
// (tensor/simd.h). The dispatch contract is that the AVX2 and AVX-512
// bodies are BIT-IDENTICAL to their scalar references on every input — not
// "close", identical — so every comparison here is EXPECT_EQ on float
// bits, no tolerance anywhere. On machines without AVX2 the dispatched
// kernel IS the scalar body and the tests degenerate to self-comparison
// (still useful: they pin the kill-switch and dispatch semantics); the
// tests that call one wide panel body directly skip when the CPU lacks its
// ISA.
//
// The elementwise kernels are checked at every length 0..67, so every
// residue of the 8-lane tail occurs, on inputs salted with NaN, ±0, ±inf,
// denormals and mixed signs. The inputs carry a single NaN payload (the
// positive quiet NaN): when two NaNs meet, x86 returns the payload of the
// first operand, and the compiler may swap the operands of a commutative
// add or mul, so two distinct payloads meeting would test register
// allocation rather than the kernels.
#include <cmath>
#include <cstring>
#include <limits>
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
#ifdef MAMDR_SIMD_X86
  EXPECT_EQ(simd::CompiledLevel(), simd::Level::kAvx512);
#else
  EXPECT_EQ(simd::CompiledLevel(), simd::Level::kScalar);
#endif
}

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx512), "avx512");
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

/// RandomVec salted with the IEEE special values: about one element in
/// `one_in` is NaN, ±0, ±inf, a denormal or the largest float.
std::vector<float> SpecialVec(int64_t n, Rng* rng, uint64_t one_in = 4) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-40f,
      -3e-39f,
      std::numeric_limits<float>::max(),
  };
  constexpr uint64_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);
  std::vector<float> v = RandomVec(n, rng);
  for (auto& x : v) {
    if (rng->UniformInt(one_in) == 0) {
      x = kSpecials[rng->UniformInt(kNumSpecials)];
    }
  }
  return v;
}

/// Bitwise equality of two float arrays, with the first differing index in
/// the failure message.
void ExpectBitsEqual(const std::vector<float>& want,
                     const std::vector<float>& got, const char* what,
                     int64_t n) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, &want[i], sizeof(a));
    std::memcpy(&b, &got[i], sizeof(b));
    ASSERT_EQ(a, b) << what << " n=" << n << " i=" << i << " scalar "
                    << want[i] << " dispatched " << got[i];
  }
}

#ifdef MAMDR_SIMD_X86

using PanelFn = void (*)(const float*, int64_t, int64_t, const float*, float*,
                         int64_t, int64_t, int64_t, int64_t);

/// SpecialVec for the panel. One element in 128 is special, so that a
/// k = 130 chain still ends finite about half the time (at one in four
/// every chain past a few terms is NaN or inf, which hides reordering).
/// The panel makes NaNs of its own (inf * 0, inf - inf), and x86 gives
/// those the default payload, the negative quiet NaN; salting with that
/// same payload keeps a single payload in play (see the file comment).
std::vector<float> PanelVec(int64_t n, Rng* rng) {
  std::vector<float> v = SpecialVec(n, rng, /*one_in=*/128);
  for (auto& x : v) {
    if (std::isnan(x)) x = -std::numeric_limits<float>::quiet_NaN();
  }
  return v;
}

/// Diffs one wide panel body against the scalar body, bit for bit, over
/// every row count 1-9 (the AVX-512 tile is 4 rows: full tiles, leftover
/// rows, both), column counts around the 8/16-lane widths and the 32-column
/// tile, k around kBlockK = 64, both stride forms, and partial [r0, r1)
/// ranges. Inputs, including the C the kernel accumulates into, are salted
/// with NaN, ±0, ±inf, denormals and FLT_MAX.
void ExpectWidePanelMatchesScalar(PanelFn panel, uint64_t seed) {
  Rng rng(seed);
  const int64_t ns[] = {1, 7, 15, 16, 17, 31, 32, 33, 64, 65};
  const int64_t ks[] = {1, 63, 64, 65, 130};
  for (int64_t m = 1; m <= 9; ++m) {
    for (int64_t n : ns) {
      for (int64_t k : ks) {
        const auto a = PanelVec(m * k, &rng);
        const auto b = PanelVec(k * n, &rng);
        const auto c0 = PanelVec(m * n, &rng);
        // Plain (sa_i=k, sa_k=1) and transposed-A (sa_i=1, sa_k=m).
        const int64_t strides[2][2] = {{k, 1}, {1, m}};
        for (const auto& st : strides) {
          // The whole panel, then a range that starts and ends mid-tile.
          const int64_t ranges[2][2] = {{0, m}, {m / 3, m - m / 4}};
          for (const auto& r : ranges) {
            std::vector<float> want = c0, got = c0;
            simd::internal::MatMulPanelScalar(a.data(), st[0], st[1],
                                              b.data(), want.data(), k, n,
                                              r[0], r[1]);
            panel(a.data(), st[0], st[1], b.data(), got.data(), k, n, r[0],
                  r[1]);
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " k=" << k << " n=" << n
                         << " sa_i=" << st[0] << " sa_k=" << st[1]
                         << " rows=[" << r[0] << "," << r[1] << ")");
            ExpectBitsEqual(want, got, "panel", n);
          }
        }
      }
    }
  }
}

TEST(SimdMatMulPanelTest, Avx2BodyMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  if (simd::ActiveLevel() < simd::Level::kAvx2) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  ExpectWidePanelMatchesScalar(&simd::internal::MatMulPanelAvx2, 67);
}

TEST(SimdMatMulPanelTest, Avx512BodyMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  if (simd::ActiveLevel() < simd::Level::kAvx512) {
    GTEST_SKIP() << "CPU lacks AVX-512F";
  }
  ExpectWidePanelMatchesScalar(&simd::internal::MatMulPanelAvx512, 71);
}

#endif  // MAMDR_SIMD_X86

TEST(SimdElementwiseTest, ReluForwardMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(47);
  for (int64_t n = 0; n <= 67; ++n) {
    const auto x = SpecialVec(n, &rng);
    std::vector<float> want(x.size(), 7.0f), got(x.size(), 7.0f);
    simd::internal::ReluForwardScalar(x.data(), want.data(), n);
    simd::ReluForward(x.data(), got.data(), n);
    ExpectBitsEqual(want, got, "relu forward", n);
    // In place, as the header allows.
    std::vector<float> inplace = x;
    simd::ReluForward(inplace.data(), inplace.data(), n);
    ExpectBitsEqual(want, inplace, "relu forward in place", n);
  }
}

TEST(SimdElementwiseTest, ReluForwardMapsNanAndNegativeZeroToPositiveZero) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  // Sixteen elements for the vector body plus a ragged tail of three for
  // the scalar one; NaN and -0 sit in both.
  std::vector<float> x(19, -1.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t i : {size_t{0}, size_t{9}, size_t{17}}) x[i] = nan;
  for (size_t i : {size_t{3}, size_t{12}, size_t{18}}) x[i] = -0.0f;
  x[5] = 2.5f;
  const auto n = static_cast<int64_t>(x.size());
  std::vector<float> scalar(x.size()), dispatched(x.size());
  simd::internal::ReluForwardScalar(x.data(), scalar.data(), n);
  simd::ReluForward(x.data(), dispatched.data(), n);
  for (const auto* out : {&scalar, &dispatched}) {
    for (size_t i = 0; i < x.size(); ++i) {
      if (i == 5) {
        EXPECT_EQ((*out)[i], 2.5f);
        continue;
      }
      EXPECT_EQ((*out)[i], 0.0f) << i;
      EXPECT_FALSE(std::signbit((*out)[i])) << i;
    }
  }
}

TEST(SimdElementwiseTest, ReluBackwardMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(53);
  for (int64_t n = 0; n <= 67; ++n) {
    const auto v = SpecialVec(n, &rng);
    const auto g = SpecialVec(n, &rng);
    const auto gi = SpecialVec(n, &rng);
    std::vector<float> want = gi, got = gi;
    simd::internal::ReluBackwardScalar(v.data(), g.data(), want.data(), n);
    simd::ReluBackward(v.data(), g.data(), got.data(), n);
    ExpectBitsEqual(want, got, "relu backward", n);
  }
}

TEST(SimdElementwiseTest, AdamUpdateMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(59);
  // Step 1 (bias corrections far from 1) and a late step (close to 1).
  const simd::AdamStep steps[] = {
      {1e-3f, 0.9f, 0.999f, 1e-8f, 1.0f - 0.9f, 1.0f - 0.999f},
      {0.05f, 0.8f, 0.99f, 1e-6f, 0.99f, 0.7f},
  };
  for (const simd::AdamStep& step : steps) {
    for (int64_t n = 0; n <= 67; ++n) {
      const auto g = SpecialVec(n, &rng);
      std::vector<float> m = SpecialVec(n, &rng);
      std::vector<float> v = SpecialVec(n, &rng);
      std::vector<float> w = SpecialVec(n, &rng);
      std::vector<float> m2 = m, v2 = v, w2 = w;
      // Two updates in a row, so the second reads moments the first wrote.
      for (int rep = 0; rep < 2; ++rep) {
        simd::internal::AdamUpdateScalar(step, g.data(), m.data(), v.data(),
                                         w.data(), n);
        simd::AdamUpdate(step, g.data(), m2.data(), v2.data(), w2.data(), n);
      }
      ExpectBitsEqual(m, m2, "adam m", n);
      ExpectBitsEqual(v, v2, "adam v", n);
      ExpectBitsEqual(w, w2, "adam w", n);
    }
  }
}

TEST(SimdElementwiseTest, AdagradUpdateMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(61);
  for (int64_t n = 0; n <= 67; ++n) {
    const auto g = SpecialVec(n, &rng);
    std::vector<float> acc = SpecialVec(n, &rng);
    std::vector<float> w = SpecialVec(n, &rng);
    std::vector<float> acc2 = acc, w2 = w;
    for (int rep = 0; rep < 2; ++rep) {
      simd::internal::AdagradUpdateScalar(0.05f, 1e-10f, g.data(), acc.data(),
                                          w.data(), n);
      simd::AdagradUpdate(0.05f, 1e-10f, g.data(), acc2.data(), w2.data(), n);
    }
    ExpectBitsEqual(acc, acc2, "adagrad acc", n);
    ExpectBitsEqual(w, w2, "adagrad w", n);
  }
}

}  // namespace
}  // namespace mamdr

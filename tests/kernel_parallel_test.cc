// Tests for the kernel layer and the pool that fans independent units out:
// ThreadPool exception safety, ParallelFor semantics, blocked (serial)
// kernel equivalence against naive references, and parallel domain
// evaluation.
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/flags.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "metrics/evaluator.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace {

// Restores a serial pool when a test returns, so thread-count experiments
// cannot leak into other test cases.
class KernelThreadsGuard {
 public:
  KernelThreadsGuard() = default;
  ~KernelThreadsGuard() { SetKernelThreads(1); }
};

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
  return t;
}

// Naive triple-loop references in the textbook ijk order.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Tensor RefMatMulTransA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(kk, i) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Tensor RefMatMulTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(j, kk);
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotDeadlockWait) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable and a clean batch does not rethrow.
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, MixedThrowingAndNormalTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    if (i % 8 == 0) {
      pool.Submit([] { throw std::logic_error("bad task"); });
    } else {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_THROW(pool.Wait(), std::logic_error);
  EXPECT_EQ(count.load(), 28);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  KernelThreadsGuard guard;
  for (int64_t threads : {1, 2, 4}) {
    SetKernelThreads(threads);
    std::vector<int> hits(1000, 0);
    ParallelFor(0, 1000, 16, [&](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range at or below the grain runs inline as one chunk.
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(0, 8, 8, [&](int64_t s, int64_t e) { chunks.push_back({s, e}); });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0);
  EXPECT_EQ(chunks[0].second, 8);
}

TEST(ParallelForTest, PropagatesChunkException) {
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [](int64_t s, int64_t) {
                    if (s == 0) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  // The shared pool survives for the next call.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 1, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  std::vector<int> hits(256, 0);
  ParallelFor(0, 4, 1, [&](int64_t s, int64_t e) {
    for (int64_t outer = s; outer < e; ++outer) {
      // Nested ParallelFor must not block on the pool running this chunk.
      ParallelFor(0, 64, 1, [&](int64_t is, int64_t ie) {
        for (int64_t i = is; i < ie; ++i) {
          ++hits[static_cast<size_t>(outer * 64 + i)];
        }
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(KernelThreadsTest, FlagControlsThreadCount) {
  KernelThreadsGuard guard;
  const char* argv[] = {"prog", "--kernel-threads=3"};
  auto flags = FlagParser::Parse(2, argv);
  ASSERT_TRUE(flags.ok());
  ASSERT_TRUE(ApplyGlobalFlags(flags.value()).ok());
  EXPECT_EQ(KernelThreads(), 3);
  const char* argv2[] = {"prog", "--kernel_threads=2"};
  auto flags2 = FlagParser::Parse(2, argv2);
  ASSERT_TRUE(flags2.ok());
  ASSERT_TRUE(ApplyGlobalFlags(flags2.value()).ok());
  EXPECT_EQ(KernelThreads(), 2);
  SetKernelThreads(1);
  EXPECT_EQ(KernelThreads(), 1);
  EXPECT_EQ(KernelPool(), nullptr);
}

struct MatMulShape {
  int64_t m, k, n;
};

// Includes non-multiples of the 32/64/128 block sizes, 1xN, Nx1, degenerate
// and empty shapes.
const MatMulShape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {7, 1, 5},    {1, 64, 129}, {129, 3, 1},
    {17, 13, 29}, {64, 64, 64}, {70, 70, 70}, {33, 65, 129}, {96, 130, 48},
    {0, 5, 4},   {4, 0, 3},    {4, 5, 0}};

TEST(KernelEquivalenceTest, MatMulMatchesNaiveReference) {
  Rng rng(123);
  for (const auto& s : kShapes) {
    Tensor a = RandomTensor(s.m, s.k, &rng);
    Tensor b = RandomTensor(s.k, s.n, &rng);
    const Tensor ref = RefMatMul(a, b);
    EXPECT_TRUE(ops::AllClose(ref, ops::MatMul(a, b), 1e-5f))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelEquivalenceTest, MatMulTransAMatchesNaiveReference) {
  Rng rng(321);
  for (const auto& s : kShapes) {
    Tensor a = RandomTensor(s.k, s.m, &rng);  // [k, m]
    Tensor b = RandomTensor(s.k, s.n, &rng);
    const Tensor ref = RefMatMulTransA(a, b);
    EXPECT_TRUE(ops::AllClose(ref, ops::MatMulTransA(a, b), 1e-5f))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelEquivalenceTest, MatMulTransBMatchesNaiveReference) {
  Rng rng(213);
  for (const auto& s : kShapes) {
    Tensor a = RandomTensor(s.m, s.k, &rng);
    Tensor b = RandomTensor(s.n, s.k, &rng);  // [n, k]
    const Tensor ref = RefMatMulTransB(a, b);
    EXPECT_TRUE(ops::AllClose(ref, ops::MatMulTransB(a, b), 1e-5f))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelEquivalenceTest, MatMulMatchesSeedKernel) {
  Rng rng(777);
  Tensor a = RandomTensor(93, 57, &rng);
  Tensor b = RandomTensor(57, 41, &rng);
  EXPECT_TRUE(ops::AllClose(ops::MatMulNaive(a, b), ops::MatMul(a, b), 1e-6f));
}

TEST(EvaluatorParallelTest, ParallelEvaluationMatchesSerial) {
  KernelThreadsGuard guard;
  auto ds_result = data::Generate(data::Amazon6Like(0.05, 11));
  ASSERT_TRUE(ds_result.ok());
  const data::MultiDomainDataset& ds = ds_result.value();
  // Deterministic stateless scorer: a hash of (position, domain).
  metrics::ScoreFn score = [](const data::Batch& batch, int64_t domain) {
    std::vector<float> out(batch.labels.size());
    for (size_t i = 0; i < out.size(); ++i) {
      const uint64_t h = (i * 2654435761ull + static_cast<uint64_t>(domain) *
                                                  0x9E3779B97F4A7C15ull);
      out[i] = static_cast<float>(h % 1000) / 1000.0f;
    }
    return out;
  };
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, score, metrics::EvalParallel::kSerial);
  for (int64_t threads : {1, 4}) {
    SetKernelThreads(threads);
    const auto parallel = metrics::EvaluateAllDomains(
        ds, metrics::Split::kTest, score, metrics::EvalParallel::kParallel);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t d = 0; d < serial.size(); ++d) {
      EXPECT_DOUBLE_EQ(serial[d], parallel[d]) << "domain " << d;
    }
  }
}

}  // namespace
}  // namespace mamdr

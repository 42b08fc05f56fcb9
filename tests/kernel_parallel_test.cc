// Tests for the kernel layer and the fan-out over independent units:
// ThreadPool exception safety, blocked (serial) kernel equivalence against
// naive references, and the per-call evaluation fan-out over domains.
#include <atomic>
#include <cstring>
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
#include "test_util.h"

namespace mamdr {
namespace {

// Restores a serial fan-out when a test returns, so width experiments cannot
// leak into other test cases.
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

// Deterministic stateless scorer: a hash of (position, domain).
std::vector<float> HashScore(const data::Batch& batch, int64_t domain) {
  std::vector<float> out(batch.labels.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t h = (i * 2654435761ull + static_cast<uint64_t>(domain) *
                                                0x9E3779B97F4A7C15ull);
    out[i] = static_cast<float>(h % 1000) / 1000.0f;
  }
  return out;
}

// Bitwise equality of two AUC vectors.
void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, int64_t width) {
  ASSERT_EQ(want.size(), got.size()) << "width " << width;
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)),
            0)
      << "width " << width;
}

TEST(EvaluatorParallelTest, ParallelEvaluationMatchesSerial) {
  KernelThreadsGuard guard;
  auto ds_result = data::Generate(data::Amazon6Like(0.05, 11));
  ASSERT_TRUE(ds_result.ok());
  const data::MultiDomainDataset& ds = ds_result.value();
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  for (int64_t threads : {1, 2, 4, 7}) {
    SetKernelThreads(threads);
    ExpectSameBits(serial,
                   metrics::EvaluateAllDomains(
                       ds, metrics::Split::kTest, HashScore,
                       metrics::EvalParallel::kParallel),
                   threads);
  }
}

TEST(EvaluatorParallelTest, EveryDomainScoredExactlyOnce) {
  KernelThreadsGuard guard;
  const auto ds = mamdr::testing::TinyDataset(5, 40);
  for (int64_t threads : {1, 2, 4, 7}) {
    SetKernelThreads(threads);
    std::vector<std::atomic<int>> calls(5);
    metrics::ScoreFn score = [&calls](const data::Batch& batch,
                                      int64_t domain) {
      calls[static_cast<size_t>(domain)].fetch_add(1);
      return HashScore(batch, domain);
    };
    metrics::EvaluateAllDomains(ds, metrics::Split::kVal, score,
                                metrics::EvalParallel::kParallel);
    for (const auto& c : calls) EXPECT_EQ(c.load(), 1) << "width " << threads;
  }
}

TEST(EvaluatorParallelTest, FewerDomainsThanThreads) {
  KernelThreadsGuard guard;
  SetKernelThreads(7);
  for (int domains : {1, 2, 3}) {
    const auto ds = mamdr::testing::TinyDataset(domains, 40);
    const auto serial = metrics::EvaluateAllDomains(
        ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
    ExpectSameBits(serial,
                   metrics::EvaluateAllDomains(
                       ds, metrics::Split::kTest, HashScore,
                       metrics::EvalParallel::kParallel),
                   7);
  }
}

TEST(EvaluatorParallelTest, ScorerExceptionPropagatesAndNextCallSucceeds) {
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  const auto ds = mamdr::testing::TinyDataset(4, 40);
  metrics::ScoreFn failing = [](const data::Batch& batch, int64_t domain) {
    if (domain == 2) throw std::runtime_error("domain 2 failed");
    return HashScore(batch, domain);
  };
  EXPECT_THROW(metrics::EvaluateAllDomains(ds, metrics::Split::kTest, failing,
                                           metrics::EvalParallel::kParallel),
               std::runtime_error);
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  ExpectSameBits(serial,
                 metrics::EvaluateAllDomains(ds, metrics::Split::kTest,
                                             HashScore,
                                             metrics::EvalParallel::kParallel),
                 4);
}

TEST(EvaluatorParallelTest, NestedFanOutDoesNotDeadlock) {
  KernelThreadsGuard guard;
  SetKernelThreads(2);
  const auto ds = mamdr::testing::TinyDataset(3, 40);
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  // A scorer that itself fans out: each call builds its own pool, so the
  // inner call never waits on the threads that run the outer one.
  metrics::ScoreFn nested = [&](const data::Batch& batch, int64_t domain) {
    ExpectSameBits(serial,
                   metrics::EvaluateAllDomains(
                       ds, metrics::Split::kTest, HashScore,
                       metrics::EvalParallel::kParallel),
                   2);
    return HashScore(batch, domain);
  };
  ExpectSameBits(serial,
                 metrics::EvaluateAllDomains(ds, metrics::Split::kTest,
                                             nested,
                                             metrics::EvalParallel::kParallel),
                 2);
}

}  // namespace
}  // namespace mamdr

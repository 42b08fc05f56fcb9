// Concurrency stress tests, written for the sanitizer CI matrix (tier1
// label): TSan proves the ThreadPool and the evaluator fan-out free
// of data races, ASan+UBSan catch task-lifetime and index-math bugs. The
// tests also run (fast) in plain builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "metrics/evaluator.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace {

/// Restores the process-wide kernel thread count on scope exit so stress
/// tests don't leak their setting into other tests.
struct KernelThreadsGuard {
  KernelThreadsGuard() : prev(KernelThreads()) {}
  ~KernelThreadsGuard() { SetKernelThreads(prev); }
  int64_t prev;
};

TEST(ThreadPoolStressTest, ConstructDestroyUnderLoad) {
  // The destructor must drain queued tasks and join cleanly even when
  // Wait() is never called — TSan verifies the shutdown handshake.
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 64; ++i) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
      if (round % 2 == 0) pool.Wait();
    }
    EXPECT_EQ(count.load(), 64);
  }
}

TEST(ThreadPoolStressTest, ConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStressTest, ThrowingTasksDoNotWedgeThePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran, i] {
        ran.fetch_add(1);
        if (i % 4 == 0) throw std::runtime_error("task failure");
      });
    }
    EXPECT_THROW(pool.Wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 16);
    pool.Wait();  // error slot was consumed; pool still usable
  }
}

/// Stateless scorer: a hash of (position, domain).
std::vector<float> HashScore(const data::Batch& batch, int64_t domain) {
  std::vector<float> out(batch.labels.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t h = i * 2654435761ull +
                       static_cast<uint64_t>(domain) * 0x9E3779B97F4A7C15ull;
    out[i] = static_cast<float>(h % 1000) / 1000.0f;
  }
  return out;
}

TEST(EvalFanOutStressTest, ConcurrentCallersGetSerialResults) {
  KernelThreadsGuard guard;
  SetKernelThreads(3);
  const auto ds = mamdr::testing::TinyDataset(5, 40);
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  constexpr int kCallers = 4;
  std::vector<std::vector<double>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&ds, &results, t] {
      for (int rep = 0; rep < 10; ++rep) {
        results[static_cast<size_t>(t)] = metrics::EvaluateAllDomains(
            ds, metrics::Split::kTest, HashScore,
            metrics::EvalParallel::kParallel);
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& r : results) EXPECT_EQ(r, serial);
}

TEST(EvalFanOutStressTest, ExceptionFromOneCallerDoesNotPoisonOthers) {
  KernelThreadsGuard guard;
  SetKernelThreads(2);
  const auto ds = mamdr::testing::TinyDataset(4, 40);
  metrics::ScoreFn failing = [](const data::Batch& batch, int64_t domain) {
    if (domain == 1) throw std::runtime_error("scorer failure");
    return HashScore(batch, domain);
  };
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  std::thread failer([&] {
    for (int rep = 0; rep < 20; ++rep) {
      EXPECT_THROW(metrics::EvaluateAllDomains(
                       ds, metrics::Split::kTest, failing,
                       metrics::EvalParallel::kParallel),
                   std::runtime_error);
    }
  });
  for (int rep = 0; rep < 20; ++rep) {
    EXPECT_EQ(metrics::EvaluateAllDomains(ds, metrics::Split::kTest,
                                          HashScore,
                                          metrics::EvalParallel::kParallel),
              serial);
  }
  failer.join();
}

TEST(EvalFanOutStressTest, ConcurrentEvaluateAllDomainsWithKernels) {
  KernelThreadsGuard guard;
  SetKernelThreads(3);
  const auto ds = mamdr::testing::TinyDataset(4);
  // The scorer runs a real (serial) tensor kernel per call, from several
  // pool threads and several callers at once.
  metrics::ScoreFn score = [](const data::Batch& batch, int64_t domain) {
    const int64_t n = batch.size();
    Tensor a({n, 8}), b({8, 1});
    float* pa = a.data();
    for (int64_t i = 0; i < a.size(); ++i) {
      pa[i] = static_cast<float>((i + domain) % 7) * 0.1f;
    }
    b.Fill(0.25f);
    const Tensor logits = ops::MatMul(a, b);
    const float* pl = logits.data();
    return std::vector<float>(pl, pl + n);
  };
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, score, metrics::EvalParallel::kSerial);
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        EXPECT_EQ(metrics::EvaluateAllDomains(
                      ds, metrics::Split::kTest, score,
                      metrics::EvalParallel::kParallel),
                  serial);
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(EvalFanOutStressTest, WidthChangesBetweenCalls) {
  KernelThreadsGuard guard;
  // Each call builds and joins its own pool, so changing the width between
  // calls leaves nothing behind; ASan sees any task outliving its pool.
  const auto ds = mamdr::testing::TinyDataset(4, 40);
  const auto serial = metrics::EvaluateAllDomains(
      ds, metrics::Split::kTest, HashScore, metrics::EvalParallel::kSerial);
  for (int64_t n : {2, 3, 1, 4, 2, 7}) {
    SetKernelThreads(n);
    EXPECT_EQ(metrics::EvaluateAllDomains(ds, metrics::Split::kTest,
                                          HashScore,
                                          metrics::EvalParallel::kParallel),
              serial)
        << "width " << n;
  }
}

}  // namespace
}  // namespace mamdr

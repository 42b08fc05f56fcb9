// Tests for the runtime lock-order validator (common/lockdep.h).
//
// The negative tests *seed* violations on purpose — an A→B/B→A inversion
// across two threads, a condvar wait under a second lock, a retry run
// under a lock — and assert that lockdep reports them with the witness
// chain. They skip in Release builds, where lockdep (deliberately)
// compiles to nothing. The clean-run test is the other half of the
// contract: ordinary library traffic must produce zero reports.
#include "common/lockdep.h"

#include <atomic>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/parallel_for.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace mamdr {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::Armed()) {
      GTEST_SKIP() << "lockdep is compiled out in this build";
    }
    lockdep::ResetForTest();
  }
  void TearDown() override { lockdep::ResetForTest(); }
};

TEST_F(LockdepTest, InversionIsDetectedWithWitnessStacks) {
  Mutex a{MAMDR_LOCK_CLASS("test.inversion.a")};
  Mutex b{MAMDR_LOCK_CLASS("test.inversion.b")};

  // Thread 1 records a→b; thread 2 then attempts b→a, which closes the
  // cycle. The threads run sequentially, so no real deadlock is possible —
  // detecting the inversion anyway is the whole point of lockdep.
  std::thread t1([&] {
    MutexLock la(&a);
    MutexLock lb(&b);
  });
  t1.join();
  ASSERT_EQ(lockdep::ViolationCount(), 0u);

  std::thread t2([&] {
    MutexLock lb(&b);
    MutexLock la(&a);
  });
  t2.join();

  EXPECT_EQ(lockdep::ViolationCount(), 1u);
  const std::string report = lockdep::LastReport();
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  EXPECT_NE(report.find("test.inversion.a"), std::string::npos) << report;
  EXPECT_NE(report.find("test.inversion.b"), std::string::npos) << report;
  EXPECT_NE(report.find("cycle:"), std::string::npos) << report;
  // Both witness stacks: the acquisition that closed the cycle and the
  // recorded edge from the first thread.
  EXPECT_NE(report.find("this acquisition"), std::string::npos) << report;
  EXPECT_NE(report.find("held here, acquired at"), std::string::npos)
      << report;
  EXPECT_NE(report.find("recorded edge"), std::string::npos) << report;
}

TEST_F(LockdepTest, InversionIsReportedOncePerEdge) {
  Mutex a{MAMDR_LOCK_CLASS("test.once.a")};
  Mutex b{MAMDR_LOCK_CLASS("test.once.b")};
  for (int i = 0; i < 3; ++i) {
    std::thread t1([&] {
      MutexLock la(&a);
      MutexLock lb(&b);
    });
    t1.join();
    std::thread t2([&] {
      MutexLock lb(&b);
      MutexLock la(&a);
    });
    t2.join();
  }
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
}

TEST_F(LockdepTest, ThreeLockCycleIsDetected) {
  Mutex a{MAMDR_LOCK_CLASS("test.tri.a")};
  Mutex b{MAMDR_LOCK_CLASS("test.tri.b")};
  Mutex c{MAMDR_LOCK_CLASS("test.tri.c")};
  auto in_thread = [](auto fn) {
    std::thread t(fn);
    t.join();
  };
  in_thread([&] {
    MutexLock la(&a);
    MutexLock lb(&b);
  });
  in_thread([&] {
    MutexLock lb(&b);
    MutexLock lc(&c);
  });
  ASSERT_EQ(lockdep::ViolationCount(), 0u);
  in_thread([&] {
    MutexLock lc(&c);
    MutexLock la(&a);  // closes a -> b -> c -> a
  });
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
  const std::string report = lockdep::LastReport();
  EXPECT_NE(report.find("test.tri.a"), std::string::npos) << report;
  EXPECT_NE(report.find("test.tri.b"), std::string::npos) << report;
  EXPECT_NE(report.find("test.tri.c"), std::string::npos) << report;
}

TEST_F(LockdepTest, SameClassNestingIsReported) {
  Mutex a{MAMDR_LOCK_CLASS("test.nest")};
  Mutex b{MAMDR_LOCK_CLASS("test.nest")};  // same class, second instance
  MutexLock la(&a);
  MutexLock lb(&b);
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
  EXPECT_NE(lockdep::LastReport().find("same-class nesting"),
            std::string::npos);
}

TEST_F(LockdepTest, ConsistentOrderIsClean) {
  Mutex a{MAMDR_LOCK_CLASS("test.clean.a")};
  Mutex b{MAMDR_LOCK_CLASS("test.clean.b")};
  for (int i = 0; i < 100; ++i) {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  EXPECT_EQ(lockdep::LastReport(), "");
}

TEST_F(LockdepTest, TryLockConstrainsNoOrder) {
  Mutex a{MAMDR_LOCK_CLASS("test.try.a")};
  Mutex b{MAMDR_LOCK_CLASS("test.try.b")};
  {
    MutexLock la(&a);
    ASSERT_TRUE(b.TryLock());  // a held, but try-lock cannot block
    b.Unlock();
  }
  {
    MutexLock lb(&b);
    MutexLock la(&a);  // would close the cycle if TryLock recorded b->a
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

/// Enters cv.Wait(mu) (with whatever else the caller holds) and returns
/// once a second thread, which locks only `mu`, has notified. The caller
/// holds `mu` until Wait releases it, so the notifier cannot run first and
/// the wait is always entered.
void WaitUntilNotified(Mutex* mu, CondVar* cv) MAMDR_REQUIRES(mu) {
  bool notified = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    notified = true;
    cv->NotifyAll();
  });
  while (!notified) cv->Wait(mu);
  // The notifier released `mu` before this thread got it back, and it
  // takes no other lock, so joining with `mu` held cannot deadlock.
  notifier.join();
}

TEST_F(LockdepTest, CondVarWaitUnderAnotherLockIsReported) {
  Mutex outer{MAMDR_LOCK_CLASS("test.wait.outer")};
  Mutex inner{MAMDR_LOCK_CLASS("test.wait.inner")};
  CondVar cv;
  MutexLock lo(&outer);
  MutexLock li(&inner);
  // A notifying thread ends the wait, but entering it with `outer` held is
  // the violation.
  WaitUntilNotified(&inner, &cv);
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
  const std::string report = lockdep::LastReport();
  EXPECT_NE(report.find("blocking operation"), std::string::npos) << report;
  EXPECT_NE(report.find("test.wait.outer"), std::string::npos) << report;
}

TEST_F(LockdepTest, CondVarWaitUnderItsOwnMutexIsClean) {
  Mutex mu{MAMDR_LOCK_CLASS("test.wait.own")};
  CondVar cv;
  MutexLock lock(&mu);
  WaitUntilNotified(&mu, &cv);
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

TEST_F(LockdepTest, RetryRunUnderLockIsReported) {
  Mutex mu{MAMDR_LOCK_CLASS("test.retry.holder")};
  RetryConfig config;
  config.max_attempts = 2;
  config.sleep = false;  // schedule still computed; no wall-clock wait
  RetryPolicy policy(config, /*seed=*/42);
  MutexLock lock(&mu);
  const Status s =
      policy.Run([] { return Status::OK(); }, "lockdep_test.op");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
  const std::string report = lockdep::LastReport();
  EXPECT_NE(report.find("retry.run"), std::string::npos) << report;
  EXPECT_NE(report.find("test.retry.holder"), std::string::npos) << report;
}

TEST_F(LockdepTest, AssertNoLocksHeldSeesUnnamedMutexes) {
  Mutex anonymous;  // no lock class: absent from the order graph...
  MutexLock lock(&anonymous);
  lockdep::AssertNoLocksHeld("lockdep_test.blocking_op");
  // ...but still visible to blocking-under-lock detection.
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
}

TEST_F(LockdepTest, HeldCountTracksThisThread) {
  Mutex a{MAMDR_LOCK_CLASS("test.held.a")};
  EXPECT_EQ(lockdep::HeldCount(), 0);
  {
    MutexLock la(&a);
    EXPECT_EQ(lockdep::HeldCount(), 1);
  }
  EXPECT_EQ(lockdep::HeldCount(), 0);
}

TEST_F(LockdepTest, CleanRunAcrossLibraryTraffic) {
  // Drive the named locks of the library itself — thread pool dispatch,
  // parallel_for latches, logging — concurrently and assert the order
  // graph stays clean. The chaos suites extend this to the PS/serve stack.
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        ParallelFor(0, 256, /*grain=*/16, [&](int64_t begin, int64_t end) {
          int64_t local = 0;
          for (int64_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lockdep::ViolationCount(), 0u) << lockdep::LastReport();
}

}  // namespace
}  // namespace mamdr

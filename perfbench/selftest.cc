// Tests of the benchmark's measurement code (perfbench/stats.h). Built with
// the benchmark; run with `python3 perfbench/run.py --selftest`. Exits 1 on
// the first failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "stats.h"

namespace {

int g_checks = 0;

#define SELFTEST_CHECK(cond)                                              \
  do {                                                                    \
    ++g_checks;                                                           \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,         \
                   __LINE__, #cond);                                      \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

using perfbench::NearestRank;
using perfbench::OpenLoopSample;
using perfbench::SamplesBeyond;
using perfbench::TailIsResolved;

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  SELFTEST_CHECK(NearestRank(v, 0.5) == 50);
  SELFTEST_CHECK(NearestRank(v, 0.99) == 99);
  SELFTEST_CHECK(NearestRank(v, 1.0) == 100);
  SELFTEST_CHECK(NearestRank(v, 0.0) == 1);  // rank clamps to 1
  // Nearest rank never interpolates: ceil(0.5 * 4) = rank 2.
  SELFTEST_CHECK(NearestRank({4, 1, 3, 2}, 0.5) == 2);
  SELFTEST_CHECK(NearestRank({7}, 0.99) == 7);
  SELFTEST_CHECK(NearestRank({}, 0.5) == 0);
}

void TestTailRule() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it; it is
  // reported as resolved only with at least 10 there, so n >= 1000.
  SELFTEST_CHECK(SamplesBeyond(999, 0.99) == 9);
  SELFTEST_CHECK(!TailIsResolved(999, 0.99));
  SELFTEST_CHECK(SamplesBeyond(1000, 0.99) == 10);
  SELFTEST_CHECK(TailIsResolved(1000, 0.99));
  SELFTEST_CHECK(SamplesBeyond(0, 0.99) == 0);
  SELFTEST_CHECK(TailIsResolved(20, 0.5));
  SELFTEST_CHECK(!TailIsResolved(19, 0.5));
}

void TestOpenLoopChargesStall() {
  // One client, a request due every 0.5 ms for 0.3 s; request 50 stalls
  // for 40 ms. Requests due during the stall are issued late, and their
  // latency counts from when they were due, not from when they were sent.
  constexpr double kRate = 2000.0;
  constexpr int64_t kStalled = 50;
  const auto samples = perfbench::RunOpenLoop(
      1, kRate, 0.3, [](int client, int64_t i) {
        SELFTEST_CHECK(client == 0);
        if (i == kStalled) {
          std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
      });
  SELFTEST_CHECK(samples.size() == 600);  // every scheduled request ran
  SELFTEST_CHECK(samples[kStalled].latency_us >= 40000.0);
  SELFTEST_CHECK(samples[kStalled].late_us < 5000.0);
  // Due 0.5 ms after the stalled one, sent only when it returned.
  SELFTEST_CHECK(samples[kStalled + 1].late_us >= 39000.0);
  SELFTEST_CHECK(samples[kStalled + 1].latency_us >= 39000.0);
  // About 80 requests were due during the stall; each waited.
  int waited = 0;
  for (const OpenLoopSample& s : samples) waited += s.latency_us >= 10000.0;
  SELFTEST_CHECK(waited >= 60);
  // The backlog drains at once (the requests do no work), so requests due
  // long after the stall are on time again.
  SELFTEST_CHECK(samples[400].latency_us < 10000.0);
  // A closed-loop timer would have charged the stall to one request only.
  int long_services = 0;
  for (const OpenLoopSample& s : samples) {
    long_services += (s.latency_us - s.late_us) >= 10000.0;
  }
  SELFTEST_CHECK(long_services == 1);
}

void TestOpenLoopSchedule() {
  // Four clients share 1000 requests/s over 0.2 s: 200 requests in all.
  std::vector<int> per_client(4, 0);
  const auto samples = perfbench::RunOpenLoop(
      4, 1000.0, 0.2, [&](int client, int64_t) { ++per_client[client]; });
  SELFTEST_CHECK(samples.size() == 200);
  for (int n : per_client) SELFTEST_CHECK(n == 50);
}

void TestTrainNumerator() {
  using perfbench::TrainSamplesPerSecond;
  using perfbench::TrainWork;
  // samples/s = sum of train split x epochs over the seconds in TrainEpoch.
  SELFTEST_CHECK(TrainSamplesPerSecond({{1000, 5, 2.0}}) == 2500.0);
  SELFTEST_CHECK(TrainSamplesPerSecond({{1000, 5, 2.0}, {3000, 1, 2.0}}) ==
                 2000.0);
  // The numerator counts the train split once per epoch, whatever the
  // algorithm did inside it ((k+1)n domain passes for MAMDR, capped DR
  // passes, skipped batches): only the time can move the figure.
  const double one = TrainSamplesPerSecond({{1000, 1, 1.0}});
  SELFTEST_CHECK(TrainSamplesPerSecond({{1000, 2, 2.0}}) == one);
  SELFTEST_CHECK(TrainSamplesPerSecond({{1000, 1, 0.5}}) == 2 * one);
  SELFTEST_CHECK(TrainSamplesPerSecond({}) == 0.0);
  SELFTEST_CHECK(TrainSamplesPerSecond({{1000, 5, 0.0}}) == 0.0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailRule();
  TestTrainNumerator();
  TestOpenLoopSchedule();
  TestOpenLoopChargesStall();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}

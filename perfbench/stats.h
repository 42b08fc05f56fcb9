// Measurement primitives of the end-to-end benchmark: nearest-rank
// percentiles, the fixed-numerator throughput, and the open-loop request
// generator. Kept free of any library dependency so perfbench_selftest can
// test them in isolation.
#ifndef MAMDR_PERFBENCH_STATS_H_
#define MAMDR_PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

/// Nearest-rank quantile: the smallest sample with at least q*n samples at
/// or below it (1-based rank ceil(q*n), clamped to [1, n]). Returns 0 for
/// an empty sample.
double NearestRank(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-quantile: n - ceil(q*n).
int64_t SamplesBeyond(int64_t n, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it; p99 therefore needs n >= 1000.
inline constexpr int64_t kMinTailSamples = 10;

/// Whether the q-quantile of n samples has kMinTailSamples beyond it.
bool TailIsResolved(int64_t n, double q);

/// Training work timed in one round: `epochs` TrainEpoch calls over a
/// train split of `train_split_samples`, taking `seconds` inside the calls.
struct TrainWork {
  int64_t train_split_samples = 0;
  int64_t epochs = 0;
  double seconds = 0.0;
};

/// Training throughput with a fixed numerator: the train split's sample
/// count times the epochs, summed over rounds, over the seconds spent inside
/// the TrainEpoch calls. It never counts the batches or domain passes an
/// algorithm consumed, so only the time can move it.
double TrainSamplesPerSecond(const std::vector<TrainWork>& rounds);

/// One request issued by an open-loop client.
struct OpenLoopSample {
  double latency_us = 0.0;  // completion - due time
  double late_us = 0.0;     // issue - due time (generator lateness)
};

/// Open-loop load: `clients` threads each own an evenly staggered share of
/// a fixed schedule of `rate_per_s` requests per second over `seconds`.
/// A client sleeps until a request is due, or issues it at once if it is
/// already late, and calls `request(client, index)`. Latency is measured
/// from the due time, so a stall also charges the wait it imposes on every
/// request scheduled behind it. Returns every client's samples.
std::vector<OpenLoopSample> RunOpenLoop(
    int clients, double rate_per_s, double seconds,
    const std::function<void(int client, int64_t index)>& request);

}  // namespace perfbench

#endif  // MAMDR_PERFBENCH_STATS_H_

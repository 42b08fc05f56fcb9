#include "stats.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

int64_t Rank(int64_t n, double q) {
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<int64_t>(samples.size());
  const auto idx = static_cast<size_t>(Rank(n, q) - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

int64_t SamplesBeyond(int64_t n, double q) {
  return n <= 0 ? 0 : n - Rank(n, q);
}

bool TailIsResolved(int64_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTailSamples;
}

double TrainSamplesPerSecond(const std::vector<TrainWork>& rounds) {
  double samples = 0.0, seconds = 0.0;
  for (const TrainWork& r : rounds) {
    samples += static_cast<double>(r.train_split_samples) *
               static_cast<double>(r.epochs);
    seconds += r.seconds;
  }
  return seconds > 0.0 ? samples / seconds : 0.0;
}

std::vector<OpenLoopSample> RunOpenLoop(
    int clients, double rate_per_s, double seconds,
    const std::function<void(int client, int64_t index)>& request) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  constexpr auto kSpin = std::chrono::microseconds(200);
  const auto interval = duration_cast<Clock::duration>(
      duration<double>(static_cast<double>(clients) / rate_per_s));
  const auto stagger =
      duration_cast<Clock::duration>(duration<double>(1.0 / rate_per_s));
  const auto horizon =
      duration_cast<Clock::duration>(duration<double>(seconds));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);

  std::vector<std::vector<OpenLoopSample>> per_client(
      static_cast<size_t>(clients));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto& out = per_client[static_cast<size_t>(c)];
        for (int64_t i = 0;; ++i) {
          const Clock::time_point due = t0 + stagger * c + interval * i;
          if (due - t0 >= horizon) break;
          // Sleep until shortly before the due time, then spin: a timer
          // wakeup alone lands tens of microseconds late at the median.
          if (Clock::now() < due - kSpin) {
            std::this_thread::sleep_until(due - kSpin);
          }
          while (Clock::now() < due) {
          }
          const Clock::time_point issued = Clock::now();
          request(c, i);
          const Clock::time_point done = Clock::now();
          out.push_back({duration<double, std::micro>(done - due).count(),
                         duration<double, std::micro>(issued - due).count()});
        }
      } catch (...) {
        errors[static_cast<size_t>(c)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<OpenLoopSample> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace perfbench

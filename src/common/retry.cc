#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "common/lockdep.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace mamdr {

namespace {
// Retry behavior is a pure function of the fault schedule and seeds, so these
// counters are kStable: the chaos-telemetry test asserts exact equality
// against the injector's own stats.
struct RetryCounters {
  obs::Counter* attempts;
  obs::Counter* transient_failures;
  obs::Counter* retries;
  obs::Counter* exhausted;
};
const RetryCounters& retry_counters() {
  static const RetryCounters c{
      obs::Registry::Global().counter("retry.attempts"),
      obs::Registry::Global().counter("retry.transient_failures"),
      obs::Registry::Global().counter("retry.retries"),
      obs::Registry::Global().counter("retry.exhausted"),
  };
  return c;
}
}  // namespace

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

RetryPolicy::RetryPolicy(RetryConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  MAMDR_CHECK_GE(config_.max_attempts, 1);
  MAMDR_CHECK_GE(config_.initial_backoff_us, 0);
  MAMDR_CHECK_GE(config_.multiplier, 1.0);
  MAMDR_CHECK_GE(config_.jitter, 0.0);
  MAMDR_CHECK_LT(config_.jitter, 1.0);
}

int64_t RetryPolicy::NextBackoffUs(int attempt) {
  double base = static_cast<double>(config_.initial_backoff_us) *
                std::pow(config_.multiplier, attempt);
  base = std::min(base, static_cast<double>(config_.max_backoff_us));
  const double scale =
      1.0 - config_.jitter + 2.0 * config_.jitter * rng_.Uniform();
  return static_cast<int64_t>(base * scale);
}

Status RetryPolicy::Run(const std::function<Status()>& op, const char* what) {
  // A retried op is a blocking call (it may sleep through the whole backoff
  // schedule); issuing one while a mutex is held stalls every thread that
  // needs the lock for the full retry budget — lockdep flags it.
  lockdep::AssertNoLocksHeld("retry.run");
  last_backoffs_us_.clear();
  last_attempts_ = 0;
  int64_t scheduled_us = 0;
  Status last = Status::OK();
  const RetryCounters& counters = retry_counters();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    last = op();
    ++last_attempts_;
    counters.attempts->Add();
    if (last.ok() || !IsRetryable(last)) return last;
    counters.transient_failures->Add();
    if (attempt + 1 >= config_.max_attempts) break;
    const int64_t backoff_us = NextBackoffUs(attempt);
    scheduled_us += backoff_us;
    if (config_.deadline_us > 0 && scheduled_us > config_.deadline_us) {
      counters.exhausted->Add();
      return Status::DeadlineExceeded(
          std::string(what) + ": retry deadline after " +
          std::to_string(last_attempts_) + " attempt(s); last: " +
          last.ToString());
    }
    last_backoffs_us_.push_back(backoff_us);
    counters.retries->Add();
    if (config_.sleep && backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
  counters.exhausted->Add();
  return Status(last.code(),
                std::string(what) + ": gave up after " +
                    std::to_string(last_attempts_) + " attempt(s); last: " +
                    last.ToString());
}

}  // namespace mamdr

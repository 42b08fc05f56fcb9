#include "testing/fault_injector.h"

#include <chrono>
#include <thread>

#include "common/lockdep.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace mamdr {
namespace ps {

namespace {
// Mirrors of FaultStats in the global registry so chaos tests can assert
// that observability and fault injection agree. Injection schedules are
// pure functions of the seed and the op sequence, so these are kStable.
struct FaultCounters {
  obs::Counter* ops;
  obs::Counter* injected_unavailable;
  obs::Counter* injected_latency;
  obs::Counter* dropped_pushes;
  obs::Counter* crashes;
};
const FaultCounters& fault_counters() {
  static const FaultCounters c{
      obs::Registry::Global().counter("ps.fault.ops"),
      obs::Registry::Global().counter("ps.fault.injected_unavailable"),
      obs::Registry::Global().counter("ps.fault.injected_latency"),
      obs::Registry::Global().counter("ps.fault.dropped_pushes"),
      obs::Registry::Global().counter("ps.fault.crashes"),
  };
  return c;
}
}  // namespace

FaultInjector::FaultInjector(std::unique_ptr<PsClient> inner,
                             FaultConfig config)
    : inner_(std::move(inner)), config_(config), rng_(config.seed) {
  MAMDR_CHECK(inner_ != nullptr);
}

void FaultInjector::ArmCrashAfterOps(int64_t after_ops, int64_t crashes) {
  MAMDR_CHECK_GE(after_ops, 1);
  MAMDR_CHECK_GE(crashes, 1);
  MutexLock lock(&mu_);
  crash_countdown_ = after_ops;
  crash_every_ = after_ops;
  crashes_left_ = crashes;
}

void FaultInjector::Disarm() {
  MutexLock lock(&mu_);
  crash_countdown_ = -1;
  crashes_left_ = 0;
}

FaultStats FaultInjector::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

FaultInjector::Decision FaultInjector::Enter(bool is_push) {
  bool sleep_now = false;
  Decision d;
  const FaultCounters& counters = fault_counters();
  {
    MutexLock lock(&mu_);
    ++stats_.ops;
    counters.ops->Add();
    if (crash_countdown_ > 0 && --crash_countdown_ == 0) {
      crash_countdown_ = --crashes_left_ > 0 ? crash_every_ : -1;
      ++stats_.crashes;
      counters.crashes->Add();
      d.crash = true;
      return d;
    }
    // Fixed draw order keeps the schedule a pure function of the op count.
    const bool unavailable = rng_.Bernoulli(config_.unavailable_prob);
    const bool drop = rng_.Bernoulli(config_.drop_push_prob);
    const bool latency = rng_.Bernoulli(config_.latency_prob);
    if (unavailable) {
      ++stats_.injected_unavailable;
      counters.injected_unavailable->Add();
      d.unavailable = true;
      return d;
    }
    if (is_push && drop) {
      ++stats_.dropped_pushes;
      counters.dropped_pushes->Add();
      d.drop = true;
    }
    if (latency) {
      ++stats_.injected_latency;
      counters.injected_latency->Add();
      sleep_now = true;
    }
  }
  if (sleep_now && config_.latency_us > 0) {
    // The injected latency models a slow RPC; like a real one, it must not
    // run while the caller holds a lock (the injector's own mu_ is already
    // released above — lockdep verifies nothing else is held either).
    lockdep::AssertNoLocksHeld("ps.fault_injector.latency");
    std::this_thread::sleep_for(std::chrono::microseconds(config_.latency_us));
  }
  return d;
}

namespace {

Status CrashStatus() {
  return Status::Aborted("worker crashed (injected)");
}

Status UnavailableStatus() {
  return Status::Unavailable("PS endpoint unavailable (injected)");
}

}  // namespace

Status FaultInjector::PullDense(std::vector<Tensor>* out) {
  const Decision d = Enter(/*is_push=*/false);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  return inner_->PullDense(out);
}

Status FaultInjector::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                               Tensor* into) {
  const Decision d = Enter(/*is_push=*/false);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  return inner_->PullRows(idx, rows, into);
}

Status FaultInjector::PullFullTable(int64_t idx, Tensor* into) {
  const Decision d = Enter(/*is_push=*/false);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  return inner_->PullFullTable(idx, into);
}

Status FaultInjector::PushDenseDelta(const std::vector<Tensor>& delta,
                                     float beta) {
  const Decision d = Enter(/*is_push=*/true);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  if (d.drop) return Status::OK();  // acknowledged, never applied
  return inner_->PushDenseDelta(delta, beta);
}

Status FaultInjector::PushRowDeltas(int64_t idx,
                                    const std::vector<int64_t>& rows,
                                    const Tensor& delta, float beta) {
  const Decision d = Enter(/*is_push=*/true);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  if (d.drop) return Status::OK();  // acknowledged, never applied
  return inner_->PushRowDeltas(idx, rows, delta, beta);
}

Result<std::vector<Tensor>> FaultInjector::Snapshot() {
  const Decision d = Enter(/*is_push=*/false);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  return inner_->Snapshot();
}

Status FaultInjector::Restore(const std::vector<Tensor>& params) {
  // Not a push: a silently dropped restore would desync resume state, so
  // the drop draw is never honored — restore either fails loudly
  // (crash/unavailable) or applies.
  const Decision d = Enter(/*is_push=*/false);
  if (d.crash) return CrashStatus();
  if (d.unavailable) return UnavailableStatus();
  return inner_->Restore(params);
}

}  // namespace ps
}  // namespace mamdr

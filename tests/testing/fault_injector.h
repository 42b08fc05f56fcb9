// Deterministic chaos harness for the PS-Worker runtime.
//
// FaultInjector decorates a PsClient and injects, from a seeded schedule:
//
//   * transient unavailability — an op returns kUnavailable; the caller's
//     retry policy re-issues it (a fresh draw each attempt);
//   * latency spikes — an op sleeps `latency_us` before forwarding;
//   * dropped pushes — a push is acknowledged OK but never applied, the
//     silent-loss mode of an at-most-once transport;
//   * worker crashes — once armed via ArmCrashAfterOps(n), the n-th
//     subsequent op returns kAborted. A crash aborts exactly that one op:
//     kAborted is not retryable, so the worker unwinds out of its epoch
//     and issues no further op until DistributedMamdr respawns it, and the
//     respawned worker's ops go through again.
//
// The chaos tests hand one injector per worker to DistributedMamdr through
// DistributedConfig::ps_client_factory, seeded with (plan seed, worker id),
// so the fault schedule a worker observes depends only on the seed and its
// own op sequence — never on thread interleaving. Two runs with the same
// seed see byte-identical faults, which is what lets the chaos tests
// assert exact reproducibility.
#ifndef MAMDR_TESTS_TESTING_FAULT_INJECTOR_H_
#define MAMDR_TESTS_TESTING_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ps/ps_client.h"

namespace mamdr {
namespace ps {

/// Per-op fault probabilities and magnitudes. All draws come from the
/// injector's own Rng in a fixed order, so outcomes are a pure function of
/// (seed, op sequence).
struct FaultConfig {
  uint64_t seed = 0;
  /// P(an op returns kUnavailable instead of executing).
  double unavailable_prob = 0.0;
  /// P(a push op is acknowledged but silently discarded).
  double drop_push_prob = 0.0;
  /// P(an op sleeps latency_us before executing).
  double latency_prob = 0.0;
  int64_t latency_us = 100;
};

/// Counters for what the injector actually did (read after training).
struct FaultStats {
  uint64_t ops = 0;
  uint64_t injected_unavailable = 0;
  uint64_t injected_latency = 0;
  uint64_t dropped_pushes = 0;
  uint64_t crashes = 0;
};

class FaultInjector : public PsClient {
 public:
  FaultInjector(std::unique_ptr<PsClient> inner, FaultConfig config);

  /// Arm `crashes` crashes: the `after_ops`-th op from now (1-based)
  /// returns kAborted, and each further crash fires `after_ops` ops after
  /// the previous one — with 2, a worker whose respawn re-runs the epoch
  /// dies again at the same point.
  void ArmCrashAfterOps(int64_t after_ops, int64_t crashes = 1)
      MAMDR_EXCLUDES(mu_);

  /// Drop whatever crashes are still armed.
  void Disarm() MAMDR_EXCLUDES(mu_);

  FaultStats stats() const MAMDR_EXCLUDES(mu_);

  int64_t num_params() const override { return inner_->num_params(); }
  bool is_embedding(int64_t idx) const override {
    return inner_->is_embedding(idx);
  }
  Status PullDense(std::vector<Tensor>* out) override;
  Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                  Tensor* into) override;
  Status PullFullTable(int64_t idx, Tensor* into) override;
  Status PushDenseDelta(const std::vector<Tensor>& delta,
                        float beta) override;
  Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                       const Tensor& delta, float beta) override;
  Result<std::vector<Tensor>> Snapshot() override;
  Status Restore(const std::vector<Tensor>& params) override;

 private:
  /// Shared per-op gate. Draws (unavailable, drop, latency) in a fixed
  /// order on every call to keep the Rng stream aligned across op kinds,
  /// then reports what to do. `drop` is only honored for push ops.
  struct Decision {
    bool crash = false;
    bool unavailable = false;
    bool drop = false;
  };
  Decision Enter(bool is_push) MAMDR_EXCLUDES(mu_);

  std::unique_ptr<PsClient> inner_;
  FaultConfig config_;
  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.fault_injector")};
  Rng rng_ MAMDR_GUARDED_BY(mu_);
  FaultStats stats_ MAMDR_GUARDED_BY(mu_);
  /// Ops remaining until the next armed crash fires; <0 = not armed.
  int64_t crash_countdown_ MAMDR_GUARDED_BY(mu_) = -1;
  /// Ops between armed crashes, and how many are still to fire.
  int64_t crash_every_ MAMDR_GUARDED_BY(mu_) = 0;
  int64_t crashes_left_ MAMDR_GUARDED_BY(mu_) = 0;
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_TESTS_TESTING_FAULT_INJECTOR_H_

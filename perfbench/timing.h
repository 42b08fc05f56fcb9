// Timing wrappers the traced benchmark run installs around three public
// seams of the library: a CtrModel whose only child is the real model, a
// ScoreFn around a framework's scorer, and a PsClient decorator handed out
// by DistributedConfig::ps_client_factory. Each forwards every call
// unchanged, so results with and without them are bit-identical.
#ifndef MAMDR_PERFBENCH_TIMING_H_
#define MAMDR_PERFBENCH_TIMING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "metrics/evaluator.h"
#include "models/ctr_model.h"
#include "ps/ps_client.h"

namespace perfbench {

/// Total time and call count, safe to add to from several threads.
struct TimeTotal {
  std::atomic<int64_t> ns{0};
  std::atomic<int64_t> calls{0};
  void Add(int64_t elapsed_ns) {
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

/// A model that times every Forward of the model it wraps. The wrapped
/// model is its only registered child, so Parameters() lists exactly the
/// wrapped model's parameters in the same order.
class TimedModel : public mamdr::models::CtrModel {
 public:
  TimedModel(mamdr::models::CtrModel* inner, TimeTotal* forward);

  mamdr::autograd::Var Forward(const mamdr::data::Batch& batch,
                               int64_t domain,
                               const mamdr::nn::Context& ctx) override;
  std::string name() const override { return inner_->name(); }

 private:
  mamdr::models::CtrModel* inner_;
  TimeTotal* forward_;
};

/// The scorer calls of one TopK request, as seen by the calling thread.
struct ScoreCallTimes {
  double score_us = 0.0;      // inside the framework's scorer
  double lock_wait_us = 0.0;  // waiting for the serializing lock
};

/// Timing recorded by TimedScorer/SerializedScorer on this thread since
/// the last call; resets it.
ScoreCallTimes TakeScoreCallTimes();

/// `inner`, timed into the calling thread's ScoreCallTimes.
mamdr::metrics::ScoreFn TimedScorer(mamdr::metrics::ScoreFn inner);

/// `inner` called under `mu`, for scorers that are not thread safe
/// (Framework::ScorerIsThreadSafe() == false). With `measure_wait`, the
/// time spent acquiring `mu` goes into the thread's ScoreCallTimes.
mamdr::metrics::ScoreFn SerializedScorer(mamdr::metrics::ScoreFn inner,
                                         mamdr::Mutex* mu, bool measure_wait);

/// Per-client PS operation log. Each DistributedMamdr worker uses its own
/// client from one thread at a time, so the log needs no lock; read it only
/// between epochs.
struct PsOpLog {
  std::vector<double> pull_dense_us, push_dense_us, pull_rows_us,
      push_rows_us, snapshot_us;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  /// Tensor payload bytes the ops asked to move (requests plus replies).
  int64_t payload_bytes = 0;
};

/// PsClient decorator that counts every op, its failures and its payload
/// bytes, and with `timed` also records each op's latency.
class CountingPsClient : public mamdr::ps::PsClient {
 public:
  CountingPsClient(std::unique_ptr<mamdr::ps::PsClient> inner, bool timed);

  const PsOpLog& log() const { return log_; }

  int64_t num_params() const override { return inner_->num_params(); }
  bool is_embedding(int64_t idx) const override {
    return inner_->is_embedding(idx);
  }
  mamdr::Status PullDense(std::vector<mamdr::Tensor>* out) override;
  mamdr::Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                         mamdr::Tensor* into) override;
  mamdr::Status PullFullTable(int64_t idx, mamdr::Tensor* into) override;
  mamdr::Status PushDenseDelta(const std::vector<mamdr::Tensor>& delta,
                               float beta) override;
  mamdr::Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                              const mamdr::Tensor& delta,
                              float beta) override;
  mamdr::Result<std::vector<mamdr::Tensor>> Snapshot() override;
  mamdr::Status Restore(const std::vector<mamdr::Tensor>& params) override;

 private:
  /// Counts one finished op; appends its latency to `series` when timed.
  void Record(const mamdr::Status& status, int64_t start_ns,
              std::vector<double>* series, int64_t bytes);

  std::unique_ptr<mamdr::ps::PsClient> inner_;
  const bool timed_;
  PsOpLog log_;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

}  // namespace perfbench

#endif  // MAMDR_PERFBENCH_TIMING_H_

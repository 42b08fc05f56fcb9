#include "timing.h"

#include <chrono>
#include <utility>

namespace perfbench {

using mamdr::Result;
using mamdr::Status;
using mamdr::Tensor;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

thread_local ScoreCallTimes t_score_times;

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

int64_t TensorBytes(const Tensor& t) {
  return t.size() * static_cast<int64_t>(sizeof(float));
}

int64_t TensorBytes(const std::vector<Tensor>& ts) {
  int64_t bytes = 0;
  for (const Tensor& t : ts) bytes += TensorBytes(t);
  return bytes;
}

int64_t RowBytes(const std::vector<int64_t>& rows, const Tensor& table) {
  return static_cast<int64_t>(rows.size()) * table.cols() *
         static_cast<int64_t>(sizeof(float));
}

}  // namespace

TimedModel::TimedModel(mamdr::models::CtrModel* inner, TimeTotal* forward)
    : inner_(inner), forward_(forward) {
  RegisterModule("inner", inner);
}

mamdr::autograd::Var TimedModel::Forward(const mamdr::data::Batch& batch,
                                         int64_t domain,
                                         const mamdr::nn::Context& ctx) {
  const int64_t start = NowNs();
  mamdr::autograd::Var out = inner_->Forward(batch, domain, ctx);
  forward_->Add(NowNs() - start);
  return out;
}

ScoreCallTimes TakeScoreCallTimes() {
  return std::exchange(t_score_times, ScoreCallTimes{});
}

mamdr::metrics::ScoreFn TimedScorer(mamdr::metrics::ScoreFn inner) {
  return [inner = std::move(inner)](const mamdr::data::Batch& batch,
                                    int64_t domain) {
    const int64_t start = NowNs();
    std::vector<float> scores = inner(batch, domain);
    t_score_times.score_us += MicrosSince(start);
    return scores;
  };
}

mamdr::metrics::ScoreFn SerializedScorer(mamdr::metrics::ScoreFn inner,
                                         mamdr::Mutex* mu, bool measure_wait) {
  return [inner = std::move(inner), mu, measure_wait](
             const mamdr::data::Batch& batch, int64_t domain) {
    const int64_t start = measure_wait ? NowNs() : 0;
    mamdr::MutexLock lock(mu);
    if (measure_wait) t_score_times.lock_wait_us += MicrosSince(start);
    return inner(batch, domain);
  };
}

CountingPsClient::CountingPsClient(std::unique_ptr<mamdr::ps::PsClient> inner,
                                   bool timed)
    : inner_(std::move(inner)), timed_(timed) {}

void CountingPsClient::Record(const Status& status, int64_t start_ns,
                              std::vector<double>* series, int64_t bytes) {
  ++log_.ops;
  if (!status.ok()) ++log_.failed_ops;
  log_.payload_bytes += bytes;
  if (timed_ && series != nullptr) series->push_back(MicrosSince(start_ns));
}

Status CountingPsClient::PullDense(std::vector<Tensor>* out) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->PullDense(out);
  Record(s, start, &log_.pull_dense_us, TensorBytes(*out));
  return s;
}

Status CountingPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                                  Tensor* into) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->PullRows(idx, rows, into);
  Record(s, start, &log_.pull_rows_us, RowBytes(rows, *into));
  return s;
}

Status CountingPsClient::PullFullTable(int64_t idx, Tensor* into) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->PullFullTable(idx, into);
  Record(s, start, nullptr, TensorBytes(*into));
  return s;
}

Status CountingPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                        float beta) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->PushDenseDelta(delta, beta);
  Record(s, start, &log_.push_dense_us, TensorBytes(delta));
  return s;
}

Status CountingPsClient::PushRowDeltas(int64_t idx,
                                       const std::vector<int64_t>& rows,
                                       const Tensor& delta, float beta) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->PushRowDeltas(idx, rows, delta, beta);
  Record(s, start, &log_.push_rows_us, RowBytes(rows, delta));
  return s;
}

Result<std::vector<Tensor>> CountingPsClient::Snapshot() {
  const int64_t start = timed_ ? NowNs() : 0;
  Result<std::vector<Tensor>> r = inner_->Snapshot();
  Record(r.status(), start, &log_.snapshot_us,
         r.ok() ? TensorBytes(r.value()) : 0);
  return r;
}

Status CountingPsClient::Restore(const std::vector<Tensor>& params) {
  const int64_t start = timed_ ? NowNs() : 0;
  Status s = inner_->Restore(params);
  Record(s, start, nullptr, TensorBytes(params));
  return s;
}

}  // namespace perfbench

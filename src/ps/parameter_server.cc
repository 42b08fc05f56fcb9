#include "ps/parameter_server.h"

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace ps {

ParameterServer::ParameterServer(std::vector<Tensor> params,
                                 std::vector<bool> is_embedding)
    : params_(std::move(params)), is_embedding_(std::move(is_embedding)) {
  MAMDR_CHECK_EQ(params_.size(), is_embedding_.size());
  // Deep-copy so the server owns its state independently of the caller.
  for (auto& p : params_) p = p.Clone();
}

void ParameterServer::PullDense(std::vector<Tensor>* out) {
  MutexLock lock(&mu_);
  MAMDR_CHECK_EQ(out->size(), params_.size());
  ++stats_.pull_ops;
  for (size_t i = 0; i < params_.size(); ++i) {
    if (is_embedding_[i]) continue;
    std::copy(params_[i].data(), params_[i].data() + params_[i].size(),
              (*out)[i].data());
    stats_.bytes_pulled += static_cast<uint64_t>(params_[i].size()) * 4;
  }
}

void ParameterServer::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                               Tensor* into) {
  MutexLock lock(&mu_);
  const Tensor& table = params_[static_cast<size_t>(idx)];
  MAMDR_CHECK(is_embedding_[static_cast<size_t>(idx)]);
  MAMDR_CHECK(into->shape() == table.shape());
  const int64_t d = table.cols();
  ++stats_.pull_ops;
  for (int64_t r : rows) {
    MAMDR_CHECK_GE(r, 0);
    MAMDR_CHECK_LT(r, table.rows());
    std::copy(table.data() + r * d, table.data() + (r + 1) * d,
              into->data() + r * d);
  }
  stats_.rows_pulled += rows.size();
  stats_.bytes_pulled += static_cast<uint64_t>(rows.size()) *
                         static_cast<uint64_t>(d) * 4;
}

void ParameterServer::PullFullTable(int64_t idx, Tensor* into) {
  MutexLock lock(&mu_);
  const Tensor& table = params_[static_cast<size_t>(idx)];
  MAMDR_CHECK(into->shape() == table.shape());
  ++stats_.pull_ops;
  std::copy(table.data(), table.data() + table.size(), into->data());
  stats_.rows_pulled += static_cast<uint64_t>(table.rows());
  stats_.bytes_pulled += static_cast<uint64_t>(table.size()) * 4;
}

void ParameterServer::PushDenseDelta(const std::vector<Tensor>& delta,
                                     float beta) {
  MutexLock lock(&mu_);
  MAMDR_CHECK_EQ(delta.size(), params_.size());
  ++stats_.push_ops;
  for (size_t i = 0; i < params_.size(); ++i) {
    if (is_embedding_[i]) continue;
    if (delta[i].empty()) continue;
    ops::AxpyInPlace(&params_[i], delta[i], beta);
    stats_.bytes_pushed += static_cast<uint64_t>(delta[i].size()) * 4;
  }
}

void ParameterServer::PushRowDeltas(int64_t idx,
                                    const std::vector<int64_t>& rows,
                                    const Tensor& delta, float beta) {
  MutexLock lock(&mu_);
  Tensor& table = params_[static_cast<size_t>(idx)];
  MAMDR_CHECK(is_embedding_[static_cast<size_t>(idx)]);
  MAMDR_CHECK(delta.shape() == table.shape());
  const int64_t d = table.cols();
  ++stats_.push_ops;
  for (int64_t r : rows) {
    float* dst = table.data() + r * d;
    const float* src = delta.data() + r * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += beta * src[j];
  }
  stats_.rows_pushed += rows.size();
  stats_.bytes_pushed += static_cast<uint64_t>(rows.size()) *
                         static_cast<uint64_t>(d) * 4;
}

std::vector<Tensor> ParameterServer::SnapshotAll() {
  MutexLock lock(&mu_);
  std::vector<Tensor> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.Clone());
  return out;
}

void ParameterServer::RestoreAll(const std::vector<Tensor>& params) {
  MutexLock lock(&mu_);
  MAMDR_CHECK_EQ(params.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    MAMDR_CHECK(params[i].shape() == params_[i].shape());
    std::copy(params[i].data(), params[i].data() + params[i].size(),
              params_[i].data());
  }
}

PsStats ParameterServer::stats() {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace ps
}  // namespace mamdr

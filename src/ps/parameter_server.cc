#include "ps/parameter_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace ps {

namespace {

// The one place PS values change: Eq. 3 for a push, plain assignment for a
// restore.
void Apply(float* dst, const float* src, int64_t n, float beta, PsWrite mode) {
  if (mode == PsWrite::kRestore) {
    std::copy(src, src + n, dst);
    return;
  }
  ops::AxpyInPlace(dst, src, n, beta);
}

}  // namespace

PsLayout::PsLayout(const std::vector<Tensor>& params,
                   std::vector<bool> is_embedding)
    : is_embedding_(std::move(is_embedding)) {
  MAMDR_CHECK_EQ(params.size(), is_embedding_.size());
  shapes_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (is_embedding_[i]) MAMDR_CHECK_EQ(params[i].rank(), 2);
    shapes_.push_back(params[i].shape());
  }
}

Status PsLayout::CheckCount(size_t n, const char* what) const {
  if (n != shapes_.size()) {
    return Status::InvalidArgument(
        std::string("ps client: ") + what + " has " + std::to_string(n) +
        " entries, layout has " + std::to_string(shapes_.size()));
  }
  return Status::OK();
}

Status PsLayout::CheckShape(int64_t idx, const Tensor& t,
                            const char* what) const {
  if (t.shape() != shape(idx)) {
    return Status::InvalidArgument(
        std::string("ps client: ") + what + " shape " +
        ShapeToString(t.shape()) + " != param " + std::to_string(idx) +
        " shape " + ShapeToString(shape(idx)));
  }
  return Status::OK();
}

Status PsLayout::CheckTableOp(int64_t idx, const std::vector<int64_t>& rows,
                              const Tensor& t, const char* what) const {
  if (idx < 0 || idx >= num_params()) {
    return Status::InvalidArgument("ps client: param index " +
                                   std::to_string(idx) + " out of range");
  }
  if (!is_embedding(idx)) {
    return Status::InvalidArgument("ps client: param " + std::to_string(idx) +
                                   " is not an embedding table");
  }
  const int64_t n = shape(idx)[0];
  for (int64_t r : rows) {
    if (r < 0 || r >= n) {
      return Status::InvalidArgument(
          "ps client: row " + std::to_string(r) + " outside table " +
          std::to_string(idx) + " (" + std::to_string(n) + " rows)");
    }
  }
  return CheckShape(idx, t, what);
}

Status PsLayout::CheckDenseList(const std::vector<Tensor>& list,
                                const char* what, bool skip_empty) const {
  MAMDR_RETURN_IF_ERROR(CheckCount(list.size(), what));
  for (int64_t i = 0; i < num_params(); ++i) {
    const Tensor& t = list[static_cast<size_t>(i)];
    if (is_embedding(i) || (skip_empty && t.empty())) continue;
    MAMDR_RETURN_IF_ERROR(CheckShape(i, t, what));
  }
  return Status::OK();
}

Status PsLayout::CheckRestore(const std::vector<Tensor>& params) const {
  MAMDR_RETURN_IF_ERROR(CheckCount(params.size(), "restore"));
  for (int64_t i = 0; i < num_params(); ++i) {
    MAMDR_RETURN_IF_ERROR(
        CheckShape(i, params[static_cast<size_t>(i)], "restore entry"));
  }
  return Status::OK();
}

ParameterServer::ParameterServer(std::vector<Tensor> params,
                                 std::vector<bool> is_embedding)
    : layout_(params, std::move(is_embedding)), params_(std::move(params)) {
  // Deep-copy so the server owns its state independently of the caller.
  for (auto& p : params_) p = p.Clone();
}

void ParameterServer::ReadDense(const std::vector<int64_t>& idxs,
                                const std::vector<float*>& out) {
  MAMDR_CHECK_EQ(idxs.size(), out.size());
  MutexLock lock(&mu_);
  ++stats_.pull_ops;
  for (size_t k = 0; k < idxs.size(); ++k) {
    MAMDR_CHECK(!layout_.is_embedding(idxs[k]));
    const Tensor& p = params_[static_cast<size_t>(idxs[k])];
    std::copy(p.data(), p.data() + p.size(), out[k]);
    stats_.bytes_pulled += static_cast<uint64_t>(p.size()) * 4;
  }
}

void ParameterServer::WriteDense(const std::vector<int64_t>& idxs,
                                 const std::vector<const float*>& data,
                                 float beta, PsWrite mode) {
  MAMDR_CHECK_EQ(idxs.size(), data.size());
  MutexLock lock(&mu_);
  ++stats_.push_ops;
  for (size_t k = 0; k < idxs.size(); ++k) {
    MAMDR_CHECK(!layout_.is_embedding(idxs[k]));
    Tensor& p = params_[static_cast<size_t>(idxs[k])];
    Apply(p.data(), data[k], p.size(), beta, mode);
    stats_.bytes_pushed += static_cast<uint64_t>(p.size()) * 4;
  }
}

void ParameterServer::ReadRows(int64_t idx, const std::vector<int64_t>& rows,
                               float* packed) {
  MAMDR_CHECK(layout_.is_embedding(idx));
  const int64_t n = layout_.shape(idx)[0];
  const int64_t d = layout_.shape(idx)[1];
  MutexLock lock(&mu_);
  const float* table = params_[static_cast<size_t>(idx)].data();
  ++stats_.pull_ops;
  for (const int64_t r : rows) {
    MAMDR_CHECK(r >= 0 && r < n) << "row " << r;
    packed = std::copy(table + r * d, table + (r + 1) * d, packed);
  }
  stats_.rows_pulled += rows.size();
  stats_.bytes_pulled += static_cast<uint64_t>(rows.size()) *
                         static_cast<uint64_t>(d) * 4;
}

void ParameterServer::WriteRows(int64_t idx, const std::vector<int64_t>& rows,
                                const float* packed, float beta,
                                PsWrite mode) {
  MAMDR_CHECK(layout_.is_embedding(idx));
  const int64_t n = layout_.shape(idx)[0];
  const int64_t d = layout_.shape(idx)[1];
  MutexLock lock(&mu_);
  float* table = params_[static_cast<size_t>(idx)].data();
  ++stats_.push_ops;
  for (const int64_t r : rows) {
    MAMDR_CHECK(r >= 0 && r < n) << "row " << r;
    Apply(table + r * d, packed, d, beta, mode);
    packed += d;
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
  MAMDR_CHECK_EQ(params.size(), layout_.shapes().size());
  for (size_t i = 0; i < params.size(); ++i) {
    MAMDR_CHECK(params[i].shape() == layout_.shapes()[i]);
  }
  MutexLock lock(&mu_);
  for (size_t i = 0; i < params.size(); ++i) {
    Apply(params_[i].data(), params[i].data(), params[i].size(), 1.0f,
          PsWrite::kRestore);
  }
}

PsStats ParameterServer::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace ps
}  // namespace mamdr

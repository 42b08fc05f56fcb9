#include "ps/ps_client.h"

#include <string>
#include <utility>

#include "common/lockdep.h"
#include "common/logging.h"

namespace mamdr {
namespace ps {

namespace {

// Every PS op models an RPC to another process: it can block for a network
// round trip (or, decorated by a test's fault injector, a retry/backoff
// schedule). Issuing one while any mutex is held is the
// blocking-under-lock pattern lockdep exists to catch, so the check sits
// at the client boundary where all op shapes funnel through.
void CheckBlockingBoundary() { lockdep::AssertNoLocksHeld("ps.client.op"); }

}  // namespace

PsLayout::PsLayout(const std::vector<Tensor>& params,
                   std::vector<bool> is_embedding)
    : is_embedding_(std::move(is_embedding)) {
  MAMDR_CHECK_EQ(params.size(), is_embedding_.size());
  shapes_.reserve(params.size());
  for (const Tensor& t : params) shapes_.push_back(t.shape());
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
  const int64_t n = shape(idx).size() == 2 ? shape(idx)[0] : 0;
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

namespace {

PsLayout LayoutOf(ParameterServer* server) {
  MAMDR_CHECK(server != nullptr);
  std::vector<bool> is_embedding;
  for (int64_t i = 0; i < server->num_params(); ++i) {
    is_embedding.push_back(server->is_embedding(i));
  }
  return PsLayout(server->SnapshotAll(), std::move(is_embedding));
}

}  // namespace

DirectPsClient::DirectPsClient(ParameterServer* server)
    : server_(server), layout_(LayoutOf(server)) {}

Status DirectPsClient::PullDense(std::vector<Tensor>* out) {
  CheckBlockingBoundary();
  // The server copies element-for-element into every non-embedding slot.
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckDenseList(*out, "pull destination", /*skip_empty=*/false));
  server_->PullDense(out);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

Status DirectPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                                Tensor* into) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckTableOp(idx, rows, *into, "pull destination"));
  server_->PullRows(idx, rows, into);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

Status DirectPsClient::PullFullTable(int64_t idx, Tensor* into) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckTableOp(idx, {}, *into, "pull destination"));
  server_->PullFullTable(idx, into);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

Status DirectPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                      float beta) {
  CheckBlockingBoundary();
  // Embedding and empty entries are skipped server-side; anything else
  // must match the layout shape.
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckDenseList(delta, "dense delta", /*skip_empty=*/true));
  server_->PushDenseDelta(delta, beta);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

Status DirectPsClient::PushRowDeltas(int64_t idx,
                                     const std::vector<int64_t>& rows,
                                     const Tensor& delta, float beta) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(layout_.CheckTableOp(idx, rows, delta, "push delta"));
  server_->PushRowDeltas(idx, rows, delta, beta);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

Result<std::vector<Tensor>> DirectPsClient::Snapshot() {
  CheckBlockingBoundary();
  return server_->SnapshotAll();
}

Status DirectPsClient::Restore(const std::vector<Tensor>& params) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(layout_.CheckRestore(params));
  server_->RestoreAll(params);  // mamdr-lint: allow(ignored-status)
  return Status::OK();
}

}  // namespace ps
}  // namespace mamdr

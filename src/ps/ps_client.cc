#include "ps/ps_client.h"

#include <algorithm>
#include <numeric>

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

DirectPsClient::DirectPsClient(ParameterServer* server)
    : server_(server), layout_(server->layout()) {}

Status DirectPsClient::PullDense(std::vector<Tensor>* out) {
  CheckBlockingBoundary();
  // The server copies element-for-element into every non-embedding slot.
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckDenseList(*out, "pull destination", /*skip_empty=*/false));
  std::vector<int64_t> idxs;
  std::vector<float*> dst;
  for (int64_t i = 0; i < layout_.num_params(); ++i) {
    if (layout_.is_embedding(i)) continue;
    idxs.push_back(i);
    dst.push_back((*out)[static_cast<size_t>(i)].data());
  }
  server_->ReadDense(idxs, dst);
  return Status::OK();
}

Status DirectPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                                Tensor* into) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckTableOp(idx, rows, *into, "pull destination"));
  const int64_t d = into->cols();
  std::vector<float> packed(rows.size() * static_cast<size_t>(d));
  server_->ReadRows(idx, rows, packed.data());
  for (size_t k = 0; k < rows.size(); ++k) {
    std::copy_n(packed.data() + static_cast<int64_t>(k) * d, d,
                into->data() + rows[k] * d);
  }
  return Status::OK();
}

Status DirectPsClient::PullFullTable(int64_t idx, Tensor* into) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckTableOp(idx, {}, *into, "pull destination"));
  // Every row in table order packs to exactly the table's own layout.
  std::vector<int64_t> rows(static_cast<size_t>(into->rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  server_->ReadRows(idx, rows, into->data());
  return Status::OK();
}

Status DirectPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                      float beta) {
  CheckBlockingBoundary();
  // Embedding and empty entries are not pushed; anything else must match
  // the layout shape.
  MAMDR_RETURN_IF_ERROR(
      layout_.CheckDenseList(delta, "dense delta", /*skip_empty=*/true));
  std::vector<int64_t> idxs;
  std::vector<const float*> src;
  for (int64_t i = 0; i < layout_.num_params(); ++i) {
    const Tensor& t = delta[static_cast<size_t>(i)];
    if (layout_.is_embedding(i) || t.empty()) continue;
    idxs.push_back(i);
    src.push_back(t.data());
  }
  server_->WriteDense(idxs, src, beta, PsWrite::kEq3);
  return Status::OK();
}

Status DirectPsClient::PushRowDeltas(int64_t idx,
                                     const std::vector<int64_t>& rows,
                                     const Tensor& delta, float beta) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(layout_.CheckTableOp(idx, rows, delta, "push delta"));
  const int64_t d = delta.cols();
  std::vector<float> packed(rows.size() * static_cast<size_t>(d));
  for (size_t k = 0; k < rows.size(); ++k) {
    std::copy_n(delta.data() + rows[k] * d, d,
                packed.data() + static_cast<int64_t>(k) * d);
  }
  server_->WriteRows(idx, rows, packed.data(), beta, PsWrite::kEq3);
  return Status::OK();
}

Result<std::vector<Tensor>> DirectPsClient::Snapshot() {
  CheckBlockingBoundary();
  return server_->SnapshotAll();
}

Status DirectPsClient::Restore(const std::vector<Tensor>& params) {
  CheckBlockingBoundary();
  MAMDR_RETURN_IF_ERROR(layout_.CheckRestore(params));
  server_->RestoreAll(params);
  return Status::OK();
}

}  // namespace ps
}  // namespace mamdr

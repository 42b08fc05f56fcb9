// In-process parameter server (§IV-E, Fig. 6).
//
// Stores the model's dense parameters plus row-addressable embedding tables.
// Workers Pull at epoch start, train locally, and Push meta-deltas
// (Θ̃ − Θ) which the server applies with Eq. 3 (optionally through a server
// optimizer such as Adagrad). Every pull/push is counted in PsStats so the
// synchronization savings of the embedding cache (Fig. 7) are measurable in
// one process.
#ifndef MAMDR_PS_PARAMETER_SERVER_H_
#define MAMDR_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace ps {

/// Traffic and op counters (bytes are float32 payload bytes).
struct PsStats {
  uint64_t pull_ops = 0;
  uint64_t push_ops = 0;
  uint64_t rows_pulled = 0;
  uint64_t rows_pushed = 0;
  uint64_t bytes_pulled = 0;
  uint64_t bytes_pushed = 0;
};

class ParameterServer {
 public:
  /// `params` is the initial parameter layout/values; `is_embedding[i]`
  /// marks tensors whose rows are pulled/pushed individually.
  ParameterServer(std::vector<Tensor> params, std::vector<bool> is_embedding);

  int64_t num_params() const {
    return static_cast<int64_t>(params_.size());
  }
  bool is_embedding(int64_t idx) const {
    return is_embedding_[static_cast<size_t>(idx)];
  }

  /// Copy every dense (non-embedding) tensor into `out` (same layout).
  void PullDense(std::vector<Tensor>* out) MAMDR_EXCLUDES(mu_);

  /// Copy the given rows of embedding parameter `idx` into the matching rows
  /// of `into` (a full-size local table).
  void PullRows(int64_t idx, const std::vector<int64_t>& rows, Tensor* into)
      MAMDR_EXCLUDES(mu_);

  /// Copy a whole embedding table (the no-cache baseline pulls all rows it
  /// needs every batch; pulling the full table is the epoch-start variant).
  void PullFullTable(int64_t idx, Tensor* into) MAMDR_EXCLUDES(mu_);

  /// Θ_dense ← Θ_dense + beta * delta_dense  (Eq. 3 on the server).
  void PushDenseDelta(const std::vector<Tensor>& delta, float beta)
      MAMDR_EXCLUDES(mu_);

  /// Embedding rows: Θ[rows] += beta * delta[rows] (delta is full-size,
  /// only `rows` are read — models a sparse push).
  void PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                     const Tensor& delta, float beta) MAMDR_EXCLUDES(mu_);

  /// Snapshot of all parameters (for evaluation / checkpointing).
  std::vector<Tensor> SnapshotAll() MAMDR_EXCLUDES(mu_);

  /// Overwrite every parameter from a snapshot with the same layout
  /// (checkpoint resume). Shapes are MAMDR_CHECKed against the current
  /// layout; the caller validates untrusted input first.
  void RestoreAll(const std::vector<Tensor>& params) MAMDR_EXCLUDES(mu_);

  PsStats stats() MAMDR_EXCLUDES(mu_);

 private:
  Mutex mu_{MAMDR_LOCK_CLASS("ps.state")};
  std::vector<Tensor> params_ MAMDR_GUARDED_BY(mu_);
  std::vector<bool> is_embedding_;  // immutable after construction
  PsStats stats_ MAMDR_GUARDED_BY(mu_);
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_PARAMETER_SERVER_H_

// The parameter server's state (§IV-E, Fig. 6): the only holder of PS
// parameters, in process and on every network shard.
//
// Stores the model's dense parameters plus row-addressable embedding tables.
// Workers pull at epoch start, train locally, and push meta-deltas
// (Θ̃ − Θ) which the server applies with Eq. 3. Every pull/push is counted
// in PsStats so the synchronization savings of the embedding cache (Fig. 7)
// are measurable in one process.
//
// The interface speaks the wire's units: dense tensors by index, embedding
// rows packed (row k of a buffer is table row rows[k]). DirectPsClient packs
// and unpacks full-size local tables around it, as NetPsClient does for the
// wire; ps::net::ShardServer decodes a request straight into these calls.
// Each call holds the state lock once, so a concurrent pull sees a write
// either fully applied or not at all. Callers validate first (PsLayout, or
// the shard's request checks): the MAMDR_CHECKs here only catch bugs.
#ifndef MAMDR_PS_PARAMETER_SERVER_H_
#define MAMDR_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace ps {

/// Traffic and op counters (bytes are float32 payload bytes). Row writes
/// count in rows_pushed whichever their PsWrite mode.
struct PsStats {
  uint64_t pull_ops = 0;
  uint64_t push_ops = 0;
  uint64_t rows_pulled = 0;
  uint64_t rows_pushed = 0;
  uint64_t bytes_pulled = 0;
  uint64_t bytes_pushed = 0;
};

/// How a write lands on the server's values.
enum class PsWrite : uint8_t {
  kEq3,     // Θ ← Θ + β·Δ (a worker's meta-delta push)
  kRestore  // Θ ← value (checkpoint restore; β is ignored)
};

/// The immutable parameter layout every request is checked against before
/// it reaches a server: a malformed op (index out of range, wrong table,
/// row beyond the table, shape mismatch) returns kInvalidArgument instead
/// of tripping a server MAMDR_CHECK (DirectPsClient) or costing a round
/// trip (NetPsClient). The shard reads the same object for its own request
/// checks.
class PsLayout {
 public:
  /// `params` fixes the shapes (values are not read); `is_embedding[i]`
  /// marks row-addressable tables, which must be rank 2.
  PsLayout(const std::vector<Tensor>& params, std::vector<bool> is_embedding);

  int64_t num_params() const { return static_cast<int64_t>(shapes_.size()); }
  bool is_embedding(int64_t idx) const {
    return is_embedding_[static_cast<size_t>(idx)];
  }
  const Shape& shape(int64_t idx) const {
    return shapes_[static_cast<size_t>(idx)];
  }
  const std::vector<Shape>& shapes() const { return shapes_; }

  /// A row op on table `idx`: `idx` names an embedding table, every row
  /// lies inside it, and `t` (destination or delta) has the table's shape.
  Status CheckTableOp(int64_t idx, const std::vector<int64_t>& rows,
                      const Tensor& t, const char* what) const;
  /// A dense op: `list` has one entry per parameter and every dense entry
  /// has its parameter's shape; `skip_empty` skips empty entries (a dense
  /// delta leaves the ones it does not push empty).
  Status CheckDenseList(const std::vector<Tensor>& list, const char* what,
                        bool skip_empty) const;
  /// A restore: one entry per parameter, each with its parameter's shape.
  Status CheckRestore(const std::vector<Tensor>& params) const;

 private:
  Status CheckCount(size_t n, const char* what) const;
  Status CheckShape(int64_t idx, const Tensor& t, const char* what) const;

  std::vector<Shape> shapes_;
  std::vector<bool> is_embedding_;
};

class ParameterServer {
 public:
  /// `params` is the initial parameter layout/values (deep-copied: the
  /// server never aliases the caller's buffers); `is_embedding[i]` marks
  /// tensors whose rows are pulled/pushed individually.
  ParameterServer(std::vector<Tensor> params, std::vector<bool> is_embedding);

  const PsLayout& layout() const { return layout_; }

  /// Copy dense parameter idxs[k] into out[k], which holds that
  /// parameter's element count.
  void ReadDense(const std::vector<int64_t>& idxs,
                 const std::vector<float*>& out) MAMDR_EXCLUDES(mu_);

  /// Write dense parameter idxs[k] from data[k] (its element count).
  void WriteDense(const std::vector<int64_t>& idxs,
                  const std::vector<const float*>& data, float beta,
                  PsWrite mode) MAMDR_EXCLUDES(mu_);

  /// Copy rows `rows` of embedding table `idx` into `packed`
  /// (rows.size() × cols floats, request order).
  void ReadRows(int64_t idx, const std::vector<int64_t>& rows, float* packed)
      MAMDR_EXCLUDES(mu_);

  /// Write rows `rows` of embedding table `idx` from `packed` (same
  /// layout as ReadRows). A repeated row is written once per occurrence.
  void WriteRows(int64_t idx, const std::vector<int64_t>& rows,
                 const float* packed, float beta, PsWrite mode)
      MAMDR_EXCLUDES(mu_);

  /// Snapshot of all parameters (for evaluation / checkpointing).
  std::vector<Tensor> SnapshotAll() MAMDR_EXCLUDES(mu_);

  /// Overwrite every parameter from a snapshot with the same layout
  /// (checkpoint resume). Not counted in PsStats.
  void RestoreAll(const std::vector<Tensor>& params) MAMDR_EXCLUDES(mu_);

  PsStats stats() const MAMDR_EXCLUDES(mu_);

 private:
  const PsLayout layout_;
  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.state")};
  std::vector<Tensor> params_ MAMDR_GUARDED_BY(mu_);
  PsStats stats_ MAMDR_GUARDED_BY(mu_);
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_PARAMETER_SERVER_H_

// Client-side view of the parameter server.
//
// In the production deployment (§IV-E) workers reach the PS over a network
// that can time out, drop responses, or lose the worker process entirely.
// PsClient models that boundary: every ParameterServer operation is carried
// as a Status-returning call, so callers (Worker) must treat each pull/push
// as fallible and route it through a retry policy (common/retry.h).
//
// DirectPsClient is the in-process implementation; NetPsClient (ps/net)
// carries the same ops to a sharded server. Both validate every request
// against a PsLayout (ps/parameter_server.h) before it reaches a server,
// and both hand embedding rows to the server packed. The chaos tests
// decorate either client to rehearse transient unavailability, latency
// spikes, dropped pushes, and crashes.
#ifndef MAMDR_PS_PS_CLIENT_H_
#define MAMDR_PS_PS_CLIENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ps/parameter_server.h"

namespace mamdr {
namespace ps {

class PsClient {
 public:
  virtual ~PsClient() = default;

  /// Parameter-layout metadata (local, never fails).
  virtual int64_t num_params() const = 0;
  virtual bool is_embedding(int64_t idx) const = 0;

  /// Copy every dense (non-embedding) tensor into `out` (same layout).
  virtual Status PullDense(std::vector<Tensor>* out) = 0;

  /// Copy the given rows of embedding parameter `idx` into the matching
  /// rows of `into` (a full-size local table).
  virtual Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                          Tensor* into) = 0;

  /// Copy a whole embedding table.
  virtual Status PullFullTable(int64_t idx, Tensor* into) = 0;

  /// Θ_dense ← Θ_dense + beta * delta_dense (Eq. 3 on the server).
  virtual Status PushDenseDelta(const std::vector<Tensor>& delta,
                                float beta) = 0;

  /// Embedding rows: Θ[rows] += beta * delta[rows].
  virtual Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                               const Tensor& delta, float beta) = 0;

  /// Full parameter snapshot (evaluation / checkpointing).
  virtual Result<std::vector<Tensor>> Snapshot() = 0;

  /// Overwrite every parameter from a same-layout snapshot (checkpoint
  /// resume). The inverse of Snapshot().
  virtual Status Restore(const std::vector<Tensor>& params) = 0;
};

/// In-process client: validates each request against the server's layout,
/// then forwards it to the ParameterServer (whose MAMDR_CHECKs a malformed
/// request would otherwise trip), packing embedding rows as the wire does.
/// The fault-free baseline the chaos runs are compared against.
class DirectPsClient : public PsClient {
 public:
  explicit DirectPsClient(ParameterServer* server);

  int64_t num_params() const override { return layout_.num_params(); }
  bool is_embedding(int64_t idx) const override {
    return layout_.is_embedding(idx);
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
  ParameterServer* server_;
  /// The server's own layout (shapes never change after construction).
  const PsLayout& layout_;
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_PS_CLIENT_H_

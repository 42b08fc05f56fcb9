// Networked PsClient: the worker-side half of the sharded parameter server.
//
// NetPsClient implements the exact PsClient contract Worker and
// DistributedMamdr already program against, but carries every op over the
// common/net frame codec to the shard that the consistent-hash ring assigns
// each key to. Dense tensors route whole (one owner per tensor); embedding
// rows route individually, so one PullRows/PushRowDeltas fans out to every
// shard that owns a requested row and reassembles the results in request
// order.
//
// Transport model: every op is one fan-out over per-shard frame batches
// ({shard, [request...]}) on pooled persistent connections — a
// ConnectionPool keeps the last healthy connection per shard. One
// pipelined pass writes every batch's frames to its shard before it reads
// any response, so an op costs about one round trip however many shards
// and frames it touches. Ping and the pull/push ops send one frame per
// shard; Snapshot and Restore send each shard its dense request plus one
// per embedding table. A shard whose pipelined exchange fails is retried
// alone, under its own budget. There is no connect-per-op mode: on
// loopback, bench_ps measured pooling 1.6-3.3x faster than a fresh dial
// per op, on every op.
//
// Robustness model (the point of this class):
//
//   * I/O deadline — the pool arms a kernel I/O deadline
//     (net::SetIoTimeout(fd, rpc_deadline_us)) on every socket it dials,
//     before connect(), so a dial to a shard whose listen backlog is full
//     fails kUnavailable after one deadline instead of hanging. A send or
//     receive that makes no progress for that long fails with
//     kDeadlineExceeded, which CallFramesOnce maps to the retryable
//     kUnavailable "rpc deadline exceeded" and counts as a deadline cut
//     (ps.net.client.deadline_cuts). No thread enforces it. The deadline
//     bounds each send or receive that makes no progress, not a whole
//     attempt — the meaning read_deadline_us has on the shard server — so
//     a peer that keeps trickling bytes is not cut, and a pipelined
//     fan-out in which k shards stall waits up to k deadlines (it reads
//     shard after shard) before their retried attempts. Snapshot and
//     Restore fan out the same way; cross-shard atomicity is not provided.
//   * Transport retry — each shard RPC runs under its own seeded
//     RetryPolicy, so refused connects, cut frames, and deadline cuts are
//     retried with deterministic backoff before the op-level policy in
//     Worker ever sees a failure.
//   * Stale-pool redial — a pooled connection can die while cached (server
//     restart, idle close) in a way ProbeConnAlive cannot see yet. When
//     the first exchange on a *reused* connection fails without hitting
//     the deadline, the client redials fresh and re-runs the attempt
//     once, WITHOUT charging the retry budget: both outcomes of the
//     FIN-vs-probe race then consume identical retry schedules, keeping
//     same-seed chaos runs bit-identical. A failure on a fresh connection
//     is charged to the retry budget as before.
//   * Poison-on-error — any transport failure leaves the stream position
//     unknown, so the connection is closed (never re-cached); only a
//     lease whose every exchange completed cleanly returns to the pool.
//   * Down-shard short-circuit — a shard published as down (port 0 in the
//     ShardDirectory) yields kUnavailable without touching the network;
//     when ShardGroup respawns it on a fresh port, the next attempt finds
//     the new endpoint through the same directory lookup.
//   * No aborts on hostile bytes — a response that fails CRC, framing, or
//     wire-format validation becomes kInvalidArgument/kUnavailable; the
//     worker's retry/handling path decides what happens next.
//
// Threading: one in-flight exchange per client (enforced by an atomic
// flag, which aborts on a second concurrent one); each worker owns its
// own client, matching how Worker owns its PsClient today.
#ifndef MAMDR_PS_NET_NET_PS_CLIENT_H_
#define MAMDR_PS_NET_NET_PS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "ps/net/connection_pool.h"
#include "ps/net/hash_ring.h"
#include "ps/net/shard_directory.h"
#include "ps/net/wire.h"
#include "ps/ps_client.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace ps {
namespace net {

struct NetPsClientConfig {
  int num_shards = 1;
  /// Kernel I/O deadline on every pooled connection: a dial, send or
  /// receive that makes no progress for this long fails the attempt
  /// (retryably). It bounds each of those calls, not a whole attempt;
  /// <= 0 disables it.
  int64_t rpc_deadline_us = 2'000'000;
  /// Transport-level retry wrapped around every shard RPC (per-shard
  /// deterministic schedules, seeded retry_seed + shard).
  RetryConfig retry;
  uint64_t retry_seed = 0;
};

class NetPsClient : public PsClient {
 public:
  /// `layout` fixes the parameter shapes this client validates against and
  /// routes by (values are not read); `is_embedding[i]` marks
  /// row-addressable tensors. `directory` must outlive the client.
  NetPsClient(NetPsClientConfig config, ShardDirectory* directory,
              const std::vector<Tensor>& layout,
              std::vector<bool> is_embedding);
  ~NetPsClient() override = default;

  NetPsClient(const NetPsClient&) = delete;
  NetPsClient& operator=(const NetPsClient&) = delete;

  int64_t num_params() const override {
    return static_cast<int64_t>(shapes_.size());
  }
  bool is_embedding(int64_t idx) const override {
    return is_embedding_[static_cast<size_t>(idx)];
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

  /// Health probe against one shard (empty request/response round trip).
  Status Ping(int shard);

  /// Invoked at the start of every PsClient op, before any network I/O and
  /// with no locks held — the chaos tests use it to kill/respawn shards at
  /// deterministic points in the op sequence. Set before the client is
  /// used; not synchronized against in-flight ops.
  void SetOpHookForTest(std::function<void()> hook) {
    op_hook_ = std::move(hook);
  }

  /// Exchanges cut by the I/O deadline (test/debug).
  uint64_t deadline_cuts() const {
    return deadline_cuts_.load(std::memory_order_relaxed);
  }

  /// Connection-pool counters (dials/reuses/stale_drops/poisoned).
  ConnectionPool::Stats pool_stats() const { return pool_.stats(); }

 private:
  void EnterOp();
  /// Counts a deadline cut when `st` is the I/O deadline's
  /// kDeadlineExceeded.
  void CountIfDeadline(const Status& st);

  /// Holds the client's one-exchange-in-flight flag for its scope; a
  /// second concurrent exchange is a caller bug and aborts.
  class ExchangeScope {
   public:
    explicit ExchangeScope(std::atomic<bool>* busy);
    ~ExchangeScope() { busy_->store(false, std::memory_order_release); }
    ExchangeScope(const ExchangeScope&) = delete;
    ExchangeScope& operator=(const ExchangeScope&) = delete;

   private:
    std::atomic<bool>* busy_;
  };

  /// One op destined for a shard, ready to pipeline: the op byte plus its
  /// already-encoded body.
  struct ShardRequest {
    PsOp op;
    std::string body;
  };
  /// Everything one op sends to `shard`, in wire order (never empty).
  struct ShardBatch {
    int shard = -1;
    std::vector<ShardRequest> requests;
  };
  /// One lease's share of an Attempt: the frames it writes and the
  /// response frames it read back (headers not yet decoded). `status` is
  /// the transport outcome alone: OK iff every response frame arrived
  /// undamaged.
  struct Exchange {
    ConnectionPool::Lease lease;
    const std::vector<std::string>* frames = nullptr;
    std::vector<std::string> responses;
    Status status;
  };

  static ShardBatch OneFrame(int shard, PsOp op, std::string body);
  static std::vector<ShardBatch> DropEmpty(std::vector<ShardBatch> batches);
  /// Frames every request; a traced `ctx` rides on each frame, so all of
  /// the batch's server handler spans link to one client span.
  static std::vector<std::string> FrameBatch(
      const std::vector<ShardRequest>& requests, const obs::TraceContext& ctx);

  /// The client's only path to the network. With two or more batches, one
  /// pipelined pass writes every batch's frames to its shard's pooled
  /// connection before reading any response, so the whole op costs about
  /// one round trip. Any shard whose pipelined exchange does not finish
  /// cleanly (transport damage, deadline cut, or a non-OK remote status)
  /// falls back, in batch order, to CallBatch with its full retry budget,
  /// so failure semantics match the single-shard path. A single batch
  /// goes straight to CallBatch. On success `ok_bodies` holds one response
  /// body per request, in batch order, then request order.
  Status FanoutCall(const std::vector<ShardBatch>& batches,
                    std::vector<std::string>* ok_bodies, const char* what);
  /// One retried, pipelined batch to its shard. An attempt is
  /// all-or-nothing: any damaged or non-OK response fails (and retries)
  /// the whole batch. Non-OK remote statuses come back reconstructed
  /// (kUnavailable stays retryable).
  Status CallBatch(const ShardBatch& batch,
                   std::vector<std::string>* ok_bodies, const char* what);
  /// A single attempt of a batch (no retry): lease a connection, run
  /// Attempt on it, with the one retry-budget-free redial when a reused
  /// connection turns out stale. Damaged responses and deadline cuts are
  /// already mapped to kUnavailable here.
  Result<std::vector<std::string>> CallFramesOnce(
      int shard, const std::vector<std::string>& frames,
      obs::Histogram* rpc_us);
  /// One attempt over k leases, the only place frames are written or read:
  /// every frame goes out on every lease before any response is read, then
  /// each lease's responses are read in lease order. An expired I/O
  /// deadline comes back as kDeadlineExceeded in that exchange's status.
  void Attempt(std::vector<Exchange>* exchanges);

  /// rows[i] -> owning shard, grouped preserving request order.
  std::vector<std::vector<int64_t>> GroupRowsByShard(
      int64_t idx, const std::vector<int64_t>& rows) const;

  /// Shared core of PullRows / PullFullTable (no op hook).
  Status PullRowsFanout(int64_t idx, const std::vector<int64_t>& rows,
                        Tensor* into, const char* what);

  /// Response decoders shared by the per-op paths and Snapshot.
  Status DecodePullParamsBody(const std::string& body,
                              const std::vector<uint32_t>& idxs,
                              std::vector<Tensor>* out) const;
  Status DecodePullRowsBody(const std::string& body, int64_t idx,
                            const std::vector<int64_t>& rows,
                            Tensor* into) const;

  Status CheckIndex(int64_t idx, bool want_embedding) const;
  Status CheckRows(int64_t idx, const std::vector<int64_t>& rows) const;
  Status CheckTableShape(int64_t idx, const Tensor& t,
                         const char* what) const;

  const NetPsClientConfig config_;
  const HashRing ring_;
  ShardDirectory* const directory_;

  // Immutable layout captured at construction.
  std::vector<Shape> shapes_;
  std::vector<bool> is_embedding_;
  /// Dense (non-embedding) param indices owned by each shard, ascending.
  std::vector<std::vector<uint32_t>> dense_by_shard_;

  std::vector<std::unique_ptr<RetryPolicy>> retry_;  // one per shard
  ConnectionPool pool_;
  std::function<void()> op_hook_;

  /// Per-op RPC latency histograms (ps.net.client.rpc_us{op="..."}) and
  /// transport-event counters (deadline cuts, stale-pool redials, fan-out
  /// serial fallbacks), registered once at construction.
  std::vector<obs::Histogram*> rpc_us_by_op_;
  obs::Counter* deadline_cut_counter_;
  obs::Counter* redial_counter_;
  obs::Counter* fanout_serial_counter_;

  /// This client's share of deadline_cut_counter_ (deadline_cuts()).
  std::atomic<uint64_t> deadline_cuts_{0};
  /// Set while an exchange is in flight (ExchangeScope).
  std::atomic<bool> in_exchange_{false};
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_NET_PS_CLIENT_H_

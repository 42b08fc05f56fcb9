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
// Transport model (PR 9): RPCs ride pooled persistent connections — a
// ConnectionPool keeps the last healthy connection per shard, and
// multi-request ops (Snapshot/Restore) pipeline all of a shard's frames
// over one connection (write all requests, then read all responses)
// instead of paying a round trip per frame. Ops that fan out across
// shards (dense pull/push, row pull/push) pipeline the other way too:
// every shard's request frame goes out before any response is read, so a
// fan-out costs roughly one round trip instead of one per shard. There is
// no connect-per-op mode: on loopback, bench_ps measured pooling 1.6-3.3x
// faster than a fresh dial per op, on every op.
//
// Robustness model (the point of this class):
//
//   * Per-attempt deadline — a persistent watchdog thread arms a
//     CondVar::WaitFor budget around every RPC attempt; on expiry it cuts
//     the connection (ShutdownFd), which surfaces in the op thread as the
//     kUnavailable a torn connection produces. No raw clock arithmetic, no
//     thread spawned per RPC.
//   * Transport retry — each shard RPC runs under its own seeded
//     RetryPolicy, so refused connects, cut frames, and deadline cuts are
//     retried with deterministic backoff before the op-level policy in
//     Worker ever sees a failure.
//   * Stale-pool redial — a pooled connection can die while cached (server
//     restart, idle close) in a way ProbeConnAlive cannot see yet. When
//     the first exchange on a *reused* connection fails without the
//     watchdog firing, the client redials fresh and re-runs the attempt
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
// Threading: one in-flight op per client (enforced); each worker owns its
// own client, matching how Worker owns its PsClient today.
#ifndef MAMDR_PS_NET_NET_PS_CLIENT_H_
#define MAMDR_PS_NET_NET_PS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
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
  /// Ring geometry; must match every shard server's construction.
  int vnodes_per_shard = 64;
  uint64_t ring_seed = 0x6d616d6472u;
  /// Watchdog budget per RPC attempt; <= 0 disables the deadline.
  int64_t rpc_deadline_us = 2'000'000;
  /// Transport-level retry wrapped around every shard RPC (per-shard
  /// deterministic schedules, seeded retry_seed + shard).
  RetryConfig retry;
  uint64_t retry_seed = 0;
  /// Upper bound on a single frame payload (request or response).
  size_t max_frame_bytes = size_t{64} << 20;
};

class NetPsClient : public PsClient {
 public:
  /// `layout` fixes the parameter shapes this client validates against and
  /// routes by (values are not read); `is_embedding[i]` marks
  /// row-addressable tensors. `directory` must outlive the client.
  NetPsClient(NetPsClientConfig config, ShardDirectory* directory,
              const std::vector<Tensor>& layout,
              std::vector<bool> is_embedding);
  ~NetPsClient() override;

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

  /// RPC attempts the watchdog cut for blowing the deadline (test/debug).
  uint64_t deadline_cuts() const MAMDR_EXCLUDES(wd_mu_);

  /// Connection-pool counters (dials/reuses/stale_drops/poisoned).
  ConnectionPool::Stats pool_stats() const { return pool_.stats(); }

 private:
  void EnterOp();

  /// One op destined for a shard, ready to pipeline: the op byte plus its
  /// already-encoded body.
  struct ShardRequest {
    PsOp op;
    std::string body;
  };

  /// One retried RPC to `shard`: frame `request`, send, read the framed
  /// response, strip the response header, return the ok-body. Non-OK remote
  /// statuses come back reconstructed (kUnavailable stays retryable).
  Result<std::string> Call(int shard, PsOp op, std::string request,
                           const char* what);
  /// One retried *pipelined* batch to `shard`: every request's frame is
  /// written before any response is read, all on one pooled connection.
  /// On success `ok_bodies` holds one response body per request, in
  /// request order. An attempt is all-or-nothing: any damaged or non-OK
  /// response fails (and retries) the whole batch.
  Status CallBatch(int shard, const std::vector<ShardRequest>& requests,
                   std::vector<std::string>* ok_bodies, const char* what);
  /// Cross-shard pipelined fan-out: `bodies[i]` rides to `shards[i]` as one
  /// `op` request, and every request frame is written to its shard's pooled
  /// connection before any response is read. Any shard whose pipelined
  /// exchange does not finish cleanly (transport damage, watchdog cut, or
  /// a non-OK remote status) falls back, in shard order, to the serial
  /// Call() path with its full retry budget, so failure semantics match
  /// the single-shard path. With pooling disabled or fewer than two
  /// targets this degenerates to serial Call()s.
  Status FanoutCall(const std::vector<int>& shards, PsOp op,
                    std::vector<std::string> bodies,
                    std::vector<std::string>* ok_bodies, const char* what);
  /// A single attempt (no retry): one framed exchange under watchdog.
  Result<std::string> CallOnce(int shard, const std::string& request,
                               obs::Histogram* rpc_us);
  /// A single attempt of a multi-frame batch: acquire a connection (pooled
  /// or fresh), write all frames, read all responses — with the one
  /// retry-budget-free redial when a reused connection turns out stale.
  /// Damaged responses and deadline cuts are already mapped to
  /// kUnavailable here.
  Result<std::vector<std::string>> CallFramesOnce(
      int shard, const std::vector<const std::string*>& requests,
      obs::Histogram* rpc_us);
  /// Write all `requests` frames on `fd`, then read `requests.size()`
  /// response frames into `responses`. `*cut` reports whether the
  /// watchdog tore this fd down mid-attempt.
  Status AttemptOnFd(int fd, const std::vector<const std::string*>& requests,
                     std::vector<std::string>* responses, bool* cut);

  void WatchdogLoop();
  void ArmWatchdog(int fd) MAMDR_EXCLUDES(wd_mu_);
  /// Arms one attempt covering several fds at once (cross-shard fan-out);
  /// on deadline expiry every listed fd is cut.
  void ArmWatchdog(std::vector<int> fds) MAMDR_EXCLUDES(wd_mu_);
  /// Returns true when the watchdog cut this attempt's connection.
  bool DisarmWatchdog() MAMDR_EXCLUDES(wd_mu_);

  /// rows[i] -> owning shard, grouped preserving request order.
  std::vector<std::vector<int64_t>> GroupRowsByShard(
      int64_t idx, const std::vector<int64_t>& rows) const;

  /// Shared cores (no op hook): dense fan-out for PullDense / Snapshot,
  /// sparse fan-out for PullRows / PullFullTable / Snapshot.
  Status PullDenseFanout(std::vector<Tensor>* out);
  Status PullRowsFanout(int64_t idx, const std::vector<int64_t>& rows,
                        Tensor* into, const char* what);

  /// Response decoders shared by the per-op paths and the pipelined
  /// Snapshot batch.
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

  // Watchdog: armed per RPC attempt with the in-flight fd(s) — a
  // cross-shard fan-out arms one per shard; on deadline expiry it shuts
  // them all down and waits to be disarmed.
  mutable Mutex wd_mu_{MAMDR_LOCK_CLASS("ps.net.client.watchdog")};
  CondVar wd_cv_;
  std::vector<int> wd_fds_ MAMDR_GUARDED_BY(wd_mu_);
  uint64_t wd_generation_ MAMDR_GUARDED_BY(wd_mu_) = 0;
  bool wd_active_ MAMDR_GUARDED_BY(wd_mu_) = false;
  bool wd_fired_ MAMDR_GUARDED_BY(wd_mu_) = false;
  bool wd_stop_ MAMDR_GUARDED_BY(wd_mu_) = false;
  uint64_t wd_cuts_ MAMDR_GUARDED_BY(wd_mu_) = 0;
  std::thread wd_thread_;
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_NET_PS_CLIENT_H_

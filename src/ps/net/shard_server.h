// One shard of the networked parameter server.
//
// A ShardServer owns the full parameter layout (same tensors as the
// in-process ParameterServer) but is *authoritative* only for the keys the
// consistent-hash ring assigns to its shard id: a request that touches a
// key it does not own is rejected with kInvalidArgument — with a correct
// client that means a routing bug or a corrupted-but-CRC-valid message, and
// either way it must not be silently applied.
//
// Transport: one poller thread owns every *idle* session. It blocks in a
// single Listener::Poll over the listening socket, the self-pipe and the
// idle session fds. A new connection joins the idle set; an idle fd that
// turns readable (or hangs up) leaves the set and is queued for a small
// worker pool. A worker serves that session's ready frames —
// read-frame / handle / write-frame, repeated while more bytes are already
// buffered (a client's pipelined frame batch) — and then hands the fd
// back to the poller through a return list and the self-pipe. No thread is
// tied to a connection, so an idle pooled session costs one fd and any
// number of clients share the `num_workers` frame handlers. Every accepted
// fd gets a kernel read deadline (net::SetIoTimeout); since workers only
// read fds that have bytes pending, it cuts a peer that stalls mid-frame
// (costing one worker at most `read_deadline_us` — it can slow the shard,
// never wedge it) and never an idle session.
// Handlers serialize on the state lock (`ps.net.shard.state`); the session
// table has its own leaf lock class (`ps.net.shard.workers`).
//
// Mutation RPCs validate the complete message *before* touching any state,
// so a push either applies entirely on this shard or not at all (per-shard
// atomicity; cross-shard atomicity is explicitly not provided — see
// docs/ARCHITECTURE.md "Sharded parameter server").
//
// Durability: SaveCheckpoint writes the shard's tensors through
// checkpoint::SaveTensors (tmp+rename, CRC-32 footer) to the configured
// path; a respawned shard restores from that file and loses only the
// pushes applied since — the same loss class as the fault injector's
// dropped pushes.
#ifndef MAMDR_PS_NET_SHARD_SERVER_H_
#define MAMDR_PS_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/net/hash_ring.h"
#include "ps/net/wire.h"
#include "serve/metrics_server.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace ps {
namespace net {

struct ShardServerConfig {
  int shard_id = 0;
  int num_shards = 1;
  /// Per-shard checkpoint file; "" disables checkpointing.
  std::string checkpoint_path;
  /// Kernel I/O deadline on every session fd. It bounds only a peer that
  /// stalls mid-frame (or stops draining a response): that peer loses its
  /// connection and the worker moves on. An idle session is never cut.
  /// <= 0 disables the deadline.
  int64_t read_deadline_us = 2'000'000;
  /// Worker threads: how many ready frames the shard handles at once. It
  /// does not cap how many clients can be connected.
  int num_workers = 4;
  /// Per-shard Chrome-trace file: when non-empty the shard records handler
  /// spans into its own TraceRecorder (started at Start()) and writes the
  /// trace document here at Stop() — one file per logical process, the
  /// input contract of tools/mamdr_tracemerge.py.
  std::string trace_path;
  /// Per-shard Prometheus endpoint (--shard-metrics-port): >= 0 starts a
  /// serve::MetricsServer on this port at Start() (0 = ephemeral, read it
  /// back via metrics_port()); < 0 disables.
  int metrics_port = -1;
};

/// Request/traffic counters (read by tests after a run).
struct ShardStats {
  uint64_t requests = 0;
  uint64_t bad_requests = 0;
  uint64_t rows_pulled = 0;
  uint64_t rows_pushed = 0;
};

class ShardServer {
 public:
  /// `params` is the full layout (values only matter for owned keys);
  /// `is_embedding[i]` marks row-addressable tensors.
  ShardServer(ShardServerConfig config, std::vector<Tensor> params,
              std::vector<bool> is_embedding);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start the poller and the
  /// workers.
  Status Start(int port = 0);

  /// Stop accepting, cut every open session and join. Idempotent; the
  /// destructor calls it.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  int shard_id() const { return config_.shard_id; }

  /// Write the shard's state to config_.checkpoint_path (atomic, CRC'd).
  /// OK no-op when checkpointing is disabled.
  Status SaveCheckpoint();

  /// Overwrite state from the checkpoint file. kNotFound message when the
  /// file has never been written (callers fall back to initial values).
  Status RestoreFromCheckpoint();

  /// Decode one request payload and produce the response payload — the
  /// entire RPC semantics without the socket, which is what the wire-format
  /// corruption matrix drives directly. Never throws, never aborts on
  /// malformed input: every parse or validation failure becomes an encoded
  /// error response.
  std::string HandleRequest(const std::string& request);

  ShardStats stats() const MAMDR_EXCLUDES(mu_);

  /// The shard's own span buffer (collecting iff trace_path was set and
  /// the server is running). Tests read it to link client and server spans.
  obs::TraceRecorder& trace_recorder() { return recorder_; }

  /// The bound Prometheus port; -1 when the endpoint is disabled.
  int metrics_port() const {
    return metrics_server_ != nullptr ? metrics_server_->port() : -1;
  }

 private:
  void PollLoop();
  void WorkerLoop();
  /// Serve a readable session: read-frame / handle / write-frame while
  /// bytes are pending. True when the session is idle again and stays
  /// open; false when it ended — the peer closed at a frame boundary
  /// (clean) or the stream failed (deadline, cut, corruption ->
  /// bad_requests).
  bool ServeReadyFrames(int fd);

  /// Op handlers: parse + validate fully, then apply. Return the ok-response
  /// body appended after the response header, or the error to encode.
  Result<std::string> HandlePullParams(PayloadReader* r) MAMDR_EXCLUDES(mu_);
  Result<std::string> HandlePushParams(PayloadReader* r, bool restore)
      MAMDR_EXCLUDES(mu_);
  Result<std::string> HandlePullRows(PayloadReader* r) MAMDR_EXCLUDES(mu_);
  Result<std::string> HandlePushRows(PayloadReader* r, bool restore)
      MAMDR_EXCLUDES(mu_);

  /// Shared validation: `idx` in range, embedding-ness as expected, and —
  /// for dense tensors — owned by this shard.
  Status CheckParamIndex(uint32_t idx, bool want_embedding) const;

  /// Register the shard-labelled registry metrics (idempotent: the
  /// registry find-or-creates, so a respawned shard reuses its series).
  void RegisterMetrics();
  /// Recompute worker_utilization: frame-handling busy time over
  /// num_workers x uptime. `now_us` is the caller's MonotonicMicros()
  /// reading.
  void UpdateUtilization(int64_t now_us);

  const ShardServerConfig config_;
  const HashRing ring_;
  const std::vector<bool> is_embedding_;

  // Immutable layout caches (shapes never change after construction), so
  // request validation runs without the state lock.
  std::vector<int64_t> sizes_;
  std::vector<int64_t> rows_;
  std::vector<int64_t> cols_;
  std::vector<Shape> shapes_;

  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.net.shard.state")};
  std::vector<Tensor> params_ MAMDR_GUARDED_BY(mu_);
  ShardStats stats_ MAMDR_GUARDED_BY(mu_);

  ::mamdr::net::Listener listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Session table. sessions_mu_ is a leaf lock: held only for handoffs and
  // fd registration/close — never across a handler or any network I/O.
  // Every open session fd is in sessions_, whether it is idle in the
  // poller's set, queued in ready_ or in a worker's hands. Fds are closed
  // only *under* sessions_mu_, so a registered fd number can never be
  // recycled while Stop() walks sessions_ cutting connections.
  mutable Mutex sessions_mu_{MAMDR_LOCK_CLASS("ps.net.shard.workers")};
  CondVar ready_cv_;
  std::unordered_map<int, ::mamdr::net::ScopedFd> sessions_
      MAMDR_GUARDED_BY(sessions_mu_);
  /// A readable session remembers when the poller saw it so the worker
  /// that picks it up can attribute the queue wait (span + histogram).
  struct ReadySession {
    int fd = -1;
    int64_t ready_us = 0;
  };
  std::deque<ReadySession> ready_ MAMDR_GUARDED_BY(sessions_mu_);
  /// Sessions workers handed back idle; the poller re-adds them to its set.
  std::vector<int> returned_ MAMDR_GUARDED_BY(sessions_mu_);
  bool workers_stop_ MAMDR_GUARDED_BY(sessions_mu_) = false;
  std::thread poll_thread_;
  std::vector<std::thread> workers_;

  // Per-shard telemetry. The registry pointers are registry-lifetime;
  // RegisterMetrics() finds-or-creates them by shard-labelled name.
  obs::TraceRecorder recorder_;
  std::unique_ptr<serve::MetricsServer> metrics_server_;
  std::atomic<int64_t> busy_us_{0};       // summed frame-handling time
  int64_t serve_start_us_ = 0;            // Start() timestamp
  obs::Gauge* up_gauge_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* bad_requests_counter_ = nullptr;
  obs::Counter* sessions_counter_ = nullptr;
  obs::Counter* bytes_in_counter_ = nullptr;
  obs::Counter* bytes_out_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* active_sessions_gauge_ = nullptr;
  obs::Gauge* worker_utilization_gauge_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  /// Per-op handler latency, indexed by op byte (kPing..kRestoreRows).
  std::vector<obs::Histogram*> op_us_by_op_;
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_SHARD_SERVER_H_

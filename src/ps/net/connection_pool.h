// Per-shard persistent-connection cache for NetPsClient.
//
// PR 8's transport dialed a fresh TCP connection for every RPC — correct,
// but the connect/teardown handshake dominated loopback round-trip time
// and capped throughput far below what the frame codec can move. The pool
// keeps the last healthy connection per shard and hands it back for the
// next RPC to that shard, so the steady-state cost of an op is one
// request/response exchange on an already-open socket (the RamCloud-style
// persistent-channel model the d-kv-store PS uses).
//
// The cache is one slot per shard because a NetPsClient carries one
// in-flight op at a time (each worker owns its own client): there is never
// a second concurrent lease against the same shard, so a deeper pool would
// only hold idle fds.
//
// Lifecycle of a lease:
//
//   Acquire(shard, port)
//     * cached fd exists, same port, ProbeConnAlive -> reuse (reused=true)
//     * cached fd exists but the shard respawned on a new port, or the
//       probe says dead/desynced -> drop it (stale_drops) and dial fresh
//     * no cached fd -> dial fresh (dials); the pool's kernel I/O
//       deadline (net::SetIoTimeout) is armed on the socket before
//       connect(), so it bounds the dial and every later exchange on it
//   ... caller runs one or more framed exchanges on lease.fd ...
//   Release(lease, healthy)
//     * healthy -> back into the slot for the next Acquire
//     * !healthy -> closed, never reused (poisoned): any transport error
//       leaves the stream position unknown, and a half-consumed response
//       would corrupt the next RPC on that socket.
//
// ProbeConnAlive can miss a peer whose FIN is still in flight, so a reused
// lease's *first* failure is not proof the shard is down — callers redial
// once (fresh connection) before charging their retry budget; see
// NetPsClient::CallFramesOnce.
//
// Thread-safety: the slot table is guarded by a named Mutex
// ("ps.net.client.pool"); dialing happens outside the lock (ConnectLoopback
// blocks and asserts no locks held). With one op in flight per client the
// lock is uncontended; it exists so CloseAll (dtor, tests) is safe against
// a racing Release.
#ifndef MAMDR_PS_NET_CONNECTION_POOL_H_
#define MAMDR_PS_NET_CONNECTION_POOL_H_

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace mamdr {
namespace ps {
namespace net {

class ConnectionPool {
 public:
  /// One checked-out connection. Move-only (owns the fd unless it came
  /// back via Release).
  struct Lease {
    int shard = -1;
    int port = 0;
    ::mamdr::net::ScopedFd fd;
    /// True when this fd came from the cache rather than a fresh dial —
    /// the caller's cue that a first-use failure may just be a stale
    /// connection (redial) rather than a down shard (retry budget).
    bool reused = false;
  };

  /// Monotonic counters, all under the pool lock. Each is mirrored into a
  /// process-global registry counter (ps.net.client.pool.*) so the pool's
  /// behaviour shows up on every /metrics scrape, not just in tests that
  /// hold a client handle; stale drops are split there by cause.
  struct Stats {
    uint64_t dials = 0;        // fresh ConnectLoopback calls
    uint64_t reuses = 0;       // leases served from the cache
    uint64_t stale_drops = 0;  // cached fds dropped at Acquire (probe/port)
    uint64_t poisoned = 0;     // leases released unhealthy, fd closed
    /// stale_drops split: liveness probe said dead/desynced vs the shard
    /// respawned on a different port (stale_drops == sum of the two).
    uint64_t stale_probe_miss = 0;
    uint64_t stale_port_change = 0;
  };

  /// `io_timeout_us` > 0 arms that kernel I/O deadline on every fd the
  /// pool dials, before its connect() (NetPsClientConfig::rpc_deadline_us);
  /// <= 0 leaves sockets fully blocking.
  ConnectionPool(int num_shards, int64_t io_timeout_us);
  ~ConnectionPool() { CloseAll(); }

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Lease a connection to `shard`, which currently listens on `port`
  /// (resolved by the caller from the ShardDirectory). Reuses the cached
  /// connection when it is still bound to `port` and probes alive;
  /// otherwise dials fresh. kUnavailable when the dial fails or outlasts
  /// the I/O deadline.
  Result<Lease> Acquire(int shard, int port) MAMDR_EXCLUDES(mu_);

  /// Return a lease. `healthy` means every exchange on it completed
  /// cleanly and the stream is at a frame boundary; anything else must
  /// pass false so the fd is destroyed instead of cached.
  void Release(Lease lease, bool healthy) MAMDR_EXCLUDES(mu_);

  /// Drop every cached connection (the slot table stays usable).
  void CloseAll() MAMDR_EXCLUDES(mu_);

  Stats stats() const MAMDR_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.net.client.pool")};
  /// Slot per shard: the cached fd and the port it was dialed against
  /// (port 0 = empty slot). A respawned shard publishes a new port, which
  /// invalidates the slot without any probe.
  struct Slot {
    ::mamdr::net::ScopedFd fd;
    int port = 0;
  };
  std::vector<Slot> slots_ MAMDR_GUARDED_BY(mu_);
  Stats stats_ MAMDR_GUARDED_BY(mu_);
  const int64_t io_timeout_us_;

  // Registry mirrors (registry-lifetime pointers; find-or-created in the
  // ctor, shared by every pool in the process).
  obs::Counter* dials_counter_ = nullptr;
  obs::Counter* reuses_counter_ = nullptr;
  obs::Counter* poisoned_counter_ = nullptr;
  obs::Counter* stale_probe_miss_counter_ = nullptr;
  obs::Counter* stale_port_change_counter_ = nullptr;
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_CONNECTION_POOL_H_

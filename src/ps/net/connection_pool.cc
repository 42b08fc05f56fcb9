#include "ps/net/connection_pool.h"

#include <utility>

#include "common/check.h"

namespace mamdr {
namespace ps {
namespace net {

namespace cnet = ::mamdr::net;

ConnectionPool::ConnectionPool(int num_shards, int64_t io_timeout_us)
    : io_timeout_us_(io_timeout_us) {
  MAMDR_CHECK_GT(num_shards, 0);
  obs::Registry& reg = obs::Registry::Global();
  dials_counter_ =
      reg.counter("ps.net.client.pool.dials", obs::Stability::kRuntime);
  reuses_counter_ =
      reg.counter("ps.net.client.pool.reuses", obs::Stability::kRuntime);
  poisoned_counter_ =
      reg.counter("ps.net.client.pool.poisoned", obs::Stability::kRuntime);
  stale_probe_miss_counter_ = reg.counter(
      "ps.net.client.pool.stale_probe_misses", obs::Stability::kRuntime);
  stale_port_change_counter_ = reg.counter(
      "ps.net.client.pool.stale_port_changes", obs::Stability::kRuntime);
  MutexLock lock(&mu_);
  slots_.resize(static_cast<size_t>(num_shards));
}

Result<ConnectionPool::Lease> ConnectionPool::Acquire(int shard, int port) {
  MAMDR_CHECK_GE(shard, 0);
  if (port <= 0) {
    return Status::Unavailable("connection pool: shard " +
                               std::to_string(shard) + " has no endpoint");
  }
  Lease lease;
  lease.shard = shard;
  lease.port = port;
  {
    MutexLock lock(&mu_);
    MAMDR_CHECK_LT(static_cast<size_t>(shard), slots_.size());
    Slot& slot = slots_[static_cast<size_t>(shard)];
    if (slot.fd.valid()) {
      if (slot.port != port) {
        // The shard respawned on a different port: the cached fd points at
        // a dead (or wrong) server.
        slot.fd.reset();
        slot.port = 0;
        ++stats_.stale_drops;
        ++stats_.stale_port_change;
        stale_port_change_counter_->Add();
      } else if (!cnet::ProbeConnAlive(slot.fd.get())) {
        // Liveness probe says dead/desynced.
        slot.fd.reset();
        slot.port = 0;
        ++stats_.stale_drops;
        ++stats_.stale_probe_miss;
        stale_probe_miss_counter_->Add();
      } else {
        lease.fd = std::move(slot.fd);
        lease.reused = true;
        slot.port = 0;
        ++stats_.reuses;
        reuses_counter_->Add();
        return lease;
      }
    }
  }
  // Fresh dial, outside the lock: ConnectLoopback blocks on the handshake
  // and asserts no locks are held. It arms the I/O deadline before
  // connect(), so the deadline bounds the dial and every later exchange.
  Result<int> conn = cnet::ConnectLoopback(port, io_timeout_us_);
  if (!conn.ok()) return conn.status();
  lease.fd.reset(conn.value());
  lease.reused = false;
  dials_counter_->Add();
  MutexLock lock(&mu_);
  ++stats_.dials;
  return lease;
}

void ConnectionPool::Release(Lease lease, bool healthy) {
  if (!lease.fd.valid()) return;
  MutexLock lock(&mu_);
  if (!healthy) {
    ++stats_.poisoned;
    poisoned_counter_->Add();
    return;  // lease.fd closes on scope exit
  }
  MAMDR_CHECK_LT(static_cast<size_t>(lease.shard), slots_.size());
  Slot& slot = slots_[static_cast<size_t>(lease.shard)];
  slot.fd = std::move(lease.fd);
  slot.port = lease.port;
}

void ConnectionPool::CloseAll() {
  MutexLock lock(&mu_);
  for (Slot& slot : slots_) {
    slot.fd.reset();
    slot.port = 0;
  }
}

ConnectionPool::Stats ConnectionPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

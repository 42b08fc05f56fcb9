// In-process orchestration of N shard servers: lifecycle, endpoints,
// checkpoints, kill/respawn.
//
// ShardGroup is the deployment harness the chaos tests (and single-machine
// runs) use: it spawns every shard on an ephemeral loopback port, publishes
// the endpoints through a ShardDirectory, and implements the recovery
// story — KillShard() hard-stops a shard losing its in-memory state
// (modeling a process crash), RespawnShard() brings up a replacement
// restored from the shard's last CRC-verified checkpoint (or pristine
// initial values if it never checkpointed) on a fresh port, and the
// directory update makes clients find it on their next connect. Pushes
// applied after the last checkpoint are lost, which is exactly the
// dropped-push fault class the training loop already tolerates.
//
// Threading: the group is driven by one controller at a time (the
// orchestrator between epochs, or the chaos hook on the serialized worker
// thread); a small mutex serializes overlapping administrative calls, and
// blocking work (joining a shard's threads, checkpoint file I/O)
// happens outside it.
#ifndef MAMDR_PS_NET_SHARD_GROUP_H_
#define MAMDR_PS_NET_SHARD_GROUP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ps/net/hash_ring.h"
#include "ps/net/shard_directory.h"
#include "ps/net/shard_server.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace ps {
namespace net {

struct ShardGroupConfig {
  int num_shards = 1;
  int vnodes_per_shard = 64;
  uint64_t ring_seed = 0x6d616d6472u;
  /// Directory for per-shard checkpoint files ("shard-<i>.ckpt"); ""
  /// disables checkpointing — a respawned shard then restarts from the
  /// initial parameter values.
  std::string checkpoint_dir;
  /// Kernel I/O deadline on every shard's sessions. It bounds only a peer
  /// that stalls mid-frame; idle sessions are never cut (<= 0 disables).
  int64_t read_deadline_us = 2'000'000;
  /// Worker threads per shard: how many ready frames a shard handles at
  /// once. It does not cap how many clients can be connected.
  int num_workers = 4;
  size_t max_frame_bytes = size_t{64} << 20;
  /// Directory for per-shard Chrome-trace files ("shard-<i>.trace.json");
  /// "" disables shard tracing. A respawned shard overwrites its file, so
  /// the directory always holds the *last incarnation's* spans — merge
  /// with tools/mamdr_tracemerge.py.
  std::string trace_dir;
  /// Per-shard Prometheus ports: shard i serves /metrics on
  /// `metrics_base_port + i` (use 0 to hand every shard an ephemeral port,
  /// read back via shard_for_test(i)->metrics_port()); < 0 disables.
  int metrics_base_port = -1;
};

class ShardGroup {
 public:
  /// `initial_params` is the full layout every shard starts from (deep-
  /// copied per shard by ShardServer).
  ShardGroup(ShardGroupConfig config, std::vector<Tensor> initial_params,
             std::vector<bool> is_embedding);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Start every shard and publish its port.
  Status Start();

  /// Stop every running shard. Idempotent; the destructor calls it.
  void Stop();

  const HashRing& ring() const { return ring_; }
  int num_shards() const { return config_.num_shards; }

  /// Endpoint map; pass to NetPsClient (or repoint at fault-proxy ports).
  ShardDirectory* directory() { return &directory_; }

  int port(int shard) const;
  bool up(int shard) const;

  /// Checkpoint every running shard (atomic tmp+rename per shard).
  Status CheckpointAll();

  /// Hard-kill: stop the shard, drop its in-memory state, mark it down in
  /// the directory. Everything pushed since its last checkpoint is lost.
  Status KillShard(int shard);

  /// Bring a killed shard back on a fresh port, restored from its last
  /// checkpoint (or initial values if it never checkpointed).
  Status RespawnShard(int shard);

  /// Direct access for tests (wire matrix, stats assertions). May be null
  /// while the shard is killed.
  ShardServer* shard_for_test(int shard);

 private:
  std::string CheckpointPathFor(int shard) const;
  std::unique_ptr<ShardServer> MakeShard(int shard) const;

  const ShardGroupConfig config_;
  const HashRing ring_;
  std::vector<Tensor> initial_params_;
  std::vector<bool> is_embedding_;
  ShardDirectory directory_;

  mutable Mutex mu_{MAMDR_LOCK_CLASS("ps.net.group")};
  std::vector<std::unique_ptr<ShardServer>> shards_ MAMDR_GUARDED_BY(mu_);
  std::vector<bool> has_checkpoint_ MAMDR_GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_SHARD_GROUP_H_

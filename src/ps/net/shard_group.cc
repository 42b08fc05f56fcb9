#include "ps/net/shard_group.h"

#include <utility>

#include "common/check.h"

namespace mamdr {
namespace ps {
namespace net {

ShardGroup::ShardGroup(ShardGroupConfig config,
                       std::vector<Tensor> initial_params,
                       std::vector<bool> is_embedding)
    : config_(config),
      ring_(config.num_shards),
      is_embedding_(std::move(is_embedding)),
      directory_(config.num_shards) {
  MAMDR_CHECK_GE(config_.num_shards, 1);
  MAMDR_CHECK_EQ(initial_params.size(), is_embedding_.size());
  // Own the pristine layout outright: respawn-without-checkpoint restores
  // from these values no matter what the caller does with its copies.
  initial_params_.reserve(initial_params.size());
  for (const Tensor& t : initial_params) initial_params_.push_back(t.Clone());
  MutexLock lock(&mu_);
  shards_.resize(static_cast<size_t>(config_.num_shards));
  has_checkpoint_.assign(static_cast<size_t>(config_.num_shards), false);
}

ShardGroup::~ShardGroup() { Stop(); }

std::string ShardGroup::CheckpointPathFor(int shard) const {
  if (config_.checkpoint_dir.empty()) return "";
  return config_.checkpoint_dir + "/shard-" + std::to_string(shard) +
         ".ckpt";
}

std::unique_ptr<ShardServer> ShardGroup::MakeShard(int shard) const {
  ShardServerConfig sc;
  sc.shard_id = shard;
  sc.num_shards = config_.num_shards;
  sc.checkpoint_path = CheckpointPathFor(shard);
  sc.read_deadline_us = config_.read_deadline_us;
  sc.num_workers = config_.num_workers;
  if (!config_.trace_dir.empty()) {
    sc.trace_path = config_.trace_dir + "/shard-" + std::to_string(shard) +
                    ".trace.json";
  }
  if (config_.metrics_base_port == 0) {
    sc.metrics_port = 0;  // every shard ephemeral
  } else if (config_.metrics_base_port > 0) {
    sc.metrics_port = config_.metrics_base_port + shard;
  }
  return std::make_unique<ShardServer>(sc, initial_params_, is_embedding_);
}

Status ShardGroup::Start() {
  for (int i = 0; i < config_.num_shards; ++i) {
    {
      MutexLock lock(&mu_);
      if (shards_[static_cast<size_t>(i)] != nullptr) {
        return Status::FailedPrecondition("shard group already started");
      }
    }
    auto server = MakeShard(i);
    MAMDR_RETURN_IF_ERROR(server->Start(0));
    const int p = server->port();
    {
      MutexLock lock(&mu_);
      shards_[static_cast<size_t>(i)] = std::move(server);
    }
    directory_.SetPort(i, p);
  }
  return Status::OK();
}

void ShardGroup::Stop() {
  std::vector<std::unique_ptr<ShardServer>> stopping;
  {
    MutexLock lock(&mu_);
    for (auto& shard : shards_) {
      if (shard != nullptr) stopping.push_back(std::move(shard));
    }
  }
  for (int i = 0; i < config_.num_shards; ++i) directory_.SetPort(i, 0);
  // Joining shard threads happens outside the group lock.
  for (auto& shard : stopping) shard->Stop();
}

int ShardGroup::port(int shard) const { return directory_.GetPort(shard); }

bool ShardGroup::up(int shard) const { return port(shard) != 0; }

Status ShardGroup::CheckpointAll() {
  if (config_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("shard group has no checkpoint dir");
  }
  for (int i = 0; i < config_.num_shards; ++i) {
    ShardServer* server = nullptr;
    {
      MutexLock lock(&mu_);
      server = shards_[static_cast<size_t>(i)].get();
    }
    if (server == nullptr) continue;  // killed: its checkpoint stays stale
    MAMDR_RETURN_IF_ERROR(server->SaveCheckpoint());
    MutexLock lock(&mu_);
    has_checkpoint_[static_cast<size_t>(i)] = true;
  }
  return Status::OK();
}

Status ShardGroup::KillShard(int shard) {
  if (shard < 0 || shard >= config_.num_shards) {
    return Status::InvalidArgument("kill: bad shard " +
                                   std::to_string(shard));
  }
  std::unique_ptr<ShardServer> victim;
  {
    MutexLock lock(&mu_);
    victim = std::move(shards_[static_cast<size_t>(shard)]);
  }
  if (victim == nullptr) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is already down");
  }
  // Unpublish first so clients stop routing here, then stop (joins the
  // shard's threads) and drop the in-memory state.
  directory_.SetPort(shard, 0);
  victim->Stop();
  return Status::OK();
}

Status ShardGroup::RespawnShard(int shard) {
  if (shard < 0 || shard >= config_.num_shards) {
    return Status::InvalidArgument("respawn: bad shard " +
                                   std::to_string(shard));
  }
  bool restore = false;
  {
    MutexLock lock(&mu_);
    if (shards_[static_cast<size_t>(shard)] != nullptr) {
      return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                        " is still running");
    }
    restore = has_checkpoint_[static_cast<size_t>(shard)];
  }
  auto server = MakeShard(shard);
  if (restore) MAMDR_RETURN_IF_ERROR(server->RestoreFromCheckpoint());
  MAMDR_RETURN_IF_ERROR(server->Start(0));
  const int p = server->port();
  {
    MutexLock lock(&mu_);
    shards_[static_cast<size_t>(shard)] = std::move(server);
  }
  directory_.SetPort(shard, p);
  return Status::OK();
}

ShardServer* ShardGroup::shard_for_test(int shard) {
  MutexLock lock(&mu_);
  return shards_[static_cast<size_t>(shard)].get();
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr

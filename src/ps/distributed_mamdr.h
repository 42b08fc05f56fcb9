// Orchestrates the PS-Worker simulation of MAMDR's large-scale
// implementation (§IV-E): one parameter server, m workers, domains
// partitioned across workers by a greedy size-balancing assignment.
//
// Fault tolerance: every worker talks to the PS through a PsClient, and
// TrainEpoch runs a recovery pass after the epoch barrier — a worker whose
// epoch failed is respawned (replica restored from the latest PS state) and
// its epoch re-run; if the respawn also dies, its domains are reassigned to
// a surviving worker for the remainder of the epoch. With `checkpoint_dir`
// set, the PS state plus the completed-epoch counter are atomically
// checkpointed after every sync epoch and Train() resumes from the latest
// checkpoint after a process restart. The chaos tests drive these
// paths by handing fault-injecting clients in through `ps_client_factory`.
#ifndef MAMDR_PS_DISTRIBUTED_MAMDR_H_
#define MAMDR_PS_DISTRIBUTED_MAMDR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ps/worker.h"

namespace mamdr {
namespace ps {

/// What the recovery pass did over the whole run.
struct RecoveryStats {
  int64_t failed_epochs = 0;      // worker epochs that returned non-OK
  int64_t respawns = 0;           // successful respawn + re-run
  int64_t respawn_failures = 0;   // respawned worker died again
  int64_t reassigned_epochs = 0;  // domains re-run on a surviving worker
};

struct DistributedConfig {
  int64_t num_workers = 4;
  core::TrainConfig train;
  bool use_embedding_cache = true;
  /// Run per-worker DR for owned domains after every DN epoch.
  bool run_dr = false;
  /// Asynchronous mode: workers run their whole epoch schedule without a
  /// global barrier (how the production PS deployment operates). Each
  /// worker's pull may observe other workers' partial pushes — the
  /// staleness the dynamic cache's pull-latest-on-miss policy bounds.
  /// Synchronous mode (default) barriers after every epoch
  /// (Parallelized-SGD style). Crash recovery in async mode is worker-side:
  /// a failed epoch is restored + retried once, then skipped.
  bool async_epochs = false;
  std::string model_name = "MLP";
  /// Retry policy every worker applies to each pull/push.
  RetryConfig retry;
  /// Worker pool size; 0 = one thread per worker capped at the hardware.
  /// 1 serializes workers, making PS push order — and therefore the whole
  /// run — bit-deterministic; the chaos tests train with 1.
  int64_t pool_threads = 0;
  /// When non-empty, checkpoint the PS to `<checkpoint_dir>/ps.ckpt` after
  /// every completed sync epoch (and at the end of an async run), and
  /// resume Train() from the checkpoint when one is present.
  std::string checkpoint_dir;
  /// Backend seam. When set, every PsClient comes from this factory —
  /// called once per worker with its id, and once with -1 for the admin
  /// client that checkpoint save/restore and evaluation go through — e.g.
  /// NetPsClient instances against a ShardGroup (ps/net), or a test's
  /// fault-injecting decorator. When empty, the in-process DirectPsClient
  /// against a local ParameterServer that DistributedMamdr builds itself.
  std::function<std::unique_ptr<PsClient>(int64_t worker_id)>
      ps_client_factory;
};

class DistributedMamdr {
 public:
  DistributedMamdr(const models::ModelConfig& model_config,
                   const data::MultiDomainDataset* dataset,
                   DistributedConfig config);
  ~DistributedMamdr();

  /// One outer epoch: all workers run the DN inner loop concurrently and
  /// push (steps 1-5 of Fig. 6); then the recovery pass for any worker
  /// whose epoch failed; then, if enabled, the DR phase. Returns non-OK
  /// only when an epoch could not be salvaged at all.
  Status TrainEpoch();

  /// config.train.epochs epochs, resuming from the latest checkpoint when
  /// checkpointing is configured. With async_epochs, every worker runs all
  /// its epochs in one barrier-free task.
  Status Train();

  /// Write PS state + `completed_epochs` atomically to
  /// `<checkpoint_dir>/ps.ckpt`.
  Status SaveCheckpoint(int64_t completed_epochs);

  /// Restore PS state from `<checkpoint_dir>/ps.ckpt`; returns the number
  /// of completed epochs recorded in it, which epochs_run() then reports.
  /// kNotFound when no checkpoint exists; kInvalidArgument for corrupted or
  /// layout-mismatched files.
  Result<int64_t> RestoreFromCheckpoint();

  /// Per-domain test AUC. Uses each domain's owner worker (with its specific
  /// parameters when run_dr), otherwise a reference replica restored from
  /// the PS.
  std::vector<double> EvaluateTest();
  double AverageTestAuc();

  /// The in-process parameter server; nullptr when `ps_client_factory` is
  /// set, since the factory's clients hold the parameters elsewhere.
  ParameterServer* server() { return server_.get(); }
  Worker* worker(int64_t i) { return workers_[static_cast<size_t>(i)].get(); }
  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.size());
  }
  int64_t OwnerOf(int64_t domain) const {
    return owner_[static_cast<size_t>(domain)];
  }
  const RecoveryStats& recovery_stats() const { return recovery_; }
  int64_t epochs_run() const { return epochs_run_; }

 private:
  std::string CheckpointPath() const {
    return config_.checkpoint_dir + "/ps.ckpt";
  }

  const data::MultiDomainDataset* dataset_;
  DistributedConfig config_;
  std::unique_ptr<models::CtrModel> reference_model_;
  std::vector<autograd::Var> reference_params_;
  std::unique_ptr<ParameterServer> server_;
  /// Checkpoint/eval path to the parameter state; DirectPsClient or a
  /// factory-minted client, matching the workers' backend.
  std::unique_ptr<PsClient> admin_client_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int64_t> owner_;  // domain -> worker id
  std::unique_ptr<ThreadPool> pool_;
  RecoveryStats recovery_;
  int64_t epochs_run_ = 0;
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_DISTRIBUTED_MAMDR_H_

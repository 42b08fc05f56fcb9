// A training worker in the PS-Worker simulation (Fig. 6 steps 1-4).
//
// Each worker owns a full model replica and a subset of the domains. Per
// outer epoch it: pulls dense parameters from the PS into its static cache,
// runs the DN inner loop over its domains (pulling embedding rows on demand
// through the dynamic cache), and pushes the meta-delta Θ̃ − Θ back to the
// PS, which applies Eq. 3.
//
// All PS traffic goes through a Status-returning PsClient and a retry
// policy: transient kUnavailable responses are retried with exponential
// backoff; a non-retryable error (e.g. an injected kAborted crash) unwinds
// out of the epoch as a Status, leaving recovery to DistributedMamdr.
//
// With `use_embedding_cache=false` the worker instead pulls every batch's
// embedding rows fresh from the PS and pushes their gradients back after
// every step — the synchronous baseline whose traffic the cache mechanism
// (Fig. 7) is designed to eliminate.
#ifndef MAMDR_PS_WORKER_H_
#define MAMDR_PS_WORKER_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/retry.h"
#include "core/domain_regularization.h"
#include "core/framework.h"
#include "models/ctr_model.h"
#include "ps/embedding_cache.h"
#include "ps/ps_client.h"

namespace mamdr {
namespace ps {

/// Which rows of which embedding parameters a batch touches.
struct TouchedRows {
  int64_t param_index = 0;
  std::vector<int64_t> rows;
};

/// Extracts touched embedding rows from a batch. The default extractor (see
/// MakeDefaultRowExtractor) understands the FeatureEncoder field layout.
using RowExtractor =
    std::function<std::vector<TouchedRows>(const data::Batch&)>;

/// Row extractor for models built on models::FeatureEncoder, resolving the
/// four embedding tables by parameter name.
RowExtractor MakeDefaultRowExtractor(models::CtrModel* model,
                                     const models::ModelConfig& config,
                                     std::vector<bool>* is_embedding_out);

struct WorkerConfig {
  std::vector<int64_t> domains;  // owned domain ids
  core::TrainConfig train;
  bool use_embedding_cache = true;
  bool run_dr = false;  // run the DR phase for owned domains after DN
  /// Retry policy for every pull/push (see common/retry.h).
  RetryConfig retry;
};

class Worker {
 public:
  Worker(int64_t id, std::unique_ptr<models::CtrModel> model,
         std::unique_ptr<PsClient> client,
         const data::MultiDomainDataset* dataset, WorkerConfig config,
         RowExtractor extractor);
  ~Worker();

  /// One outer epoch over the owned domains: pull -> DN inner loop -> push.
  /// A non-OK return means the epoch did not complete (kAborted = this
  /// worker crashed mid-epoch and needs Respawn-style recovery).
  Status RunDnEpoch();

  /// Same, over an explicit domain list: used when a dead worker's domains
  /// are reassigned to this one for the remainder of an epoch.
  Status RunDnEpochOn(const std::vector<int64_t>& domains);

  /// DR phase for owned domains (requires run_dr; uses the latest θS).
  Status RunDrPhase();

  /// Crash recovery: re-sync the whole replica (dense + all embedding
  /// tables) from the PS and drop cache state, discarding any partial
  /// inner-loop progress.
  Status RestoreFromPs();

  models::CtrModel* model() { return model_.get(); }
  PsClient* client() { return client_.get(); }
  const EmbeddingCache& cache(int64_t param_index) const;
  core::SharedSpecificStore* specific_store() { return store_.get(); }
  int64_t id() const { return id_; }
  const std::vector<int64_t>& domains() const { return config_.domains; }

 private:
  Status EnsureRowsFresh(const data::Batch& batch);
  Status PushBatchEmbeddingGrads(const data::Batch& batch);
  /// Retry-wrapped client call.
  Status CallPs(const char* what, const std::function<Status()>& op);

  int64_t id_;
  std::unique_ptr<models::CtrModel> model_;
  std::unique_ptr<PsClient> client_;
  const data::MultiDomainDataset* dataset_;
  WorkerConfig config_;
  RowExtractor extractor_;
  std::vector<autograd::Var> params_;
  // One per parameter index. deque, not vector: EmbeddingCache owns a Mutex
  // and is immovable, and deque constructs elements in place.
  std::deque<EmbeddingCache> caches_;
  std::vector<Tensor> static_cache_;       // Θ at pull time (per parameter)
  std::vector<Tensor> dense_delta_;  // Θ̃ − Θ per dense parameter, reused
  std::unique_ptr<core::SharedSpecificStore> store_;  // θi for owned domains
  std::unique_ptr<core::DomainRegularization> dr_;
  Rng rng_;
  RetryPolicy retry_;
  /// Tensor storage reused across the DN passes' steps; released when the
  /// epoch ends (the DR phase runs on dr_'s own set).
  StepBuffers step_buffers_;
};

}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_WORKER_H_

// Learning-framework interface: the model-agnostic training layer.
//
// A Framework owns *how* a model's parameters are optimized across domains,
// never *what* the model computes. Every algorithm compared in the paper
// (Table X) implements this interface: Alternate, Alternate+Finetune,
// WeightedLoss, PCGrad, MAML, Reptile, MLDG, DN, DR, and MAMDR.
#ifndef MAMDR_CORE_FRAMEWORK_H_
#define MAMDR_CORE_FRAMEWORK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "metrics/conflict_probe.h"
#include "metrics/evaluator.h"
#include "models/ctr_model.h"
#include "optim/optimizer.h"
#include "tensor/step_buffers.h"

namespace mamdr {
namespace core {

/// Hyper-parameters of the training frameworks (§V-C).
struct TrainConfig {
  int64_t epochs = 8;
  int64_t batch_size = 256;
  /// Inner-loop learning rate alpha (Eq. 2).
  float inner_lr = 1e-3f;
  /// Outer-loop learning rate beta (Eq. 3). beta=1 degenerates DN to
  /// Alternate Training (§IV-C). The paper finds beta in [0.1, 0.5] best;
  /// 0.5 converges fastest at fixed epoch budgets (Fig. 9).
  float outer_lr = 0.5f;
  /// DR learning rate gamma (Eq. 8).
  float dr_lr = 0.5f;
  /// DR helper-domain sample count k (Algorithm 2).
  int64_t dr_sample_k = 5;
  /// Cap on mini-batches per domain pass inside DR (bounds the 2kn cost).
  int64_t dr_max_batches = 4;
  /// Cap on mini-batches per domain pass in DN inner loop (0 = full pass).
  int64_t dn_max_batches = 0;
  /// Inner optimizer: "adam" | "sgd" | "adagrad".
  std::string inner_optimizer = "adam";
  /// Finetune epochs (Alternate+Finetune, Separate).
  int64_t finetune_epochs = 2;
  /// DR update order ablation (§IV-B fixes helper -> target; Eq. 22 only
  /// regularizes the helper gradient when the target comes second).
  enum class DrOrder { kHelperFirst, kTargetFirst, kRandom };
  DrOrder dr_order = DrOrder::kHelperFirst;
  /// DN domain-shuffle ablation (Algorithm 1 line 3; the shuffle is what
  /// symmetrizes the InnerGrad term in Eq. 19).
  bool dn_shuffle = true;
  /// Batches per auxiliary-domain pass in the CDR-transfer baseline.
  int64_t cdr_transfer_batches = 2;
  uint64_t seed = 42;
  bool verbose = false;

  /// InvalidArgument naming the first field a framework would abort on
  /// or silently misbehave with: epochs, batch_size or dr_sample_k below 1,
  /// a negative or non-finite inner_lr/outer_lr/dr_lr, or an unknown
  /// inner_optimizer. CLI front ends call this once after reading their
  /// flags.
  Status Validate() const;
};

/// Per-batch callbacks of a TrainPass; either may be empty. A non-OK Status
/// ends the pass before that batch's optimizer step.
struct PassHooks {
  /// Before ZeroGrad and the forward pass.
  std::function<Status(const data::Batch&)> before_forward;
  /// After Backward, before Step; may read or rewrite the gradients.
  std::function<Status(const data::Batch&)> after_backward;
};

/// One domain's loss / squared-gradient-norm totals over an epoch's passes.
struct PassTelemetry {
  double loss_sum = 0.0;
  double grad_sq_sum = 0.0;
  int64_t batches = 0;
};

/// The one mini-batch training loop, run by the frameworks' domain passes
/// and the PS worker: a pass over `rows` shuffled by `rng` (which also
/// drives dropout).
/// Per batch: before_forward, ZeroGrad, Loss, Backward, after_backward, the
/// `telemetry` update (when non-null), opt->Step(). Loss and Backward run
/// in a StepScope on the caller's `buffers` (may be null), so from the
/// second step on they reuse the previous step's tensor storage; hooks,
/// ZeroGrad and Step stay outside it, which keeps parameter gradients and
/// optimizer state out of the set. Stops after max_batches steps (0 = no
/// cap). Returns the steps taken, or the first failing hook's Status, in
/// which case that batch took no step.
Result<int64_t> TrainPass(models::CtrModel* model, int64_t domain,
                          const std::vector<data::Interaction>& rows,
                          int64_t batch_size, int64_t max_batches,
                          optim::Optimizer* opt, Rng* rng,
                          const PassHooks& hooks, PassTelemetry* telemetry,
                          StepBuffers* buffers = nullptr);

class Framework {
 public:
  Framework(models::CtrModel* model, const data::MultiDomainDataset* dataset,
            TrainConfig config);
  virtual ~Framework() = default;
  // install_domain_ captures `this`, so a copy would install into the
  // original.
  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// One outer epoch of the algorithm. Non-virtual wrapper: opens a trace
  /// span named "<name>_epoch", runs the algorithm (DoTrainEpoch), releases
  /// the step buffers, then — if a telemetry sink is installed — flushes
  /// one DomainEpochRecord per domain trained this epoch (mean loss, batch
  /// count, gradient norm).
  void TrainEpoch();

  /// config.epochs calls to TrainEpoch().
  void Train();

  /// How many TrainEpoch() calls have completed on this framework.
  int64_t epochs_completed() const { return epochs_completed_; }

  /// Framework name as it appears in the paper's tables.
  virtual std::string name() const = 0;

  /// Scoring callback for evaluation and serving, safe to call from any
  /// number of threads: the model's forward pass with its current
  /// parameters or, once a framework has set install_domain_, a forward
  /// pass of an idle pooled model with the batch's domain installed into
  /// it. The pool starts as the model alone, so serial callers score on it
  /// exactly as before; a caller that finds every pooled model busy builds
  /// one more from the model's spec() (and copies its non-parameter state,
  /// see nn::Module::CopyBuffersFrom, on every take). A model without a
  /// spec stays a pool of one, and concurrent callers wait for it. Must not
  /// overlap training. Memory: each replica is a full model, embedding
  /// tables included, kept until the framework is destroyed, so a parallel
  /// Evaluate() keeps up to min(KernelThreads(), domains) - 1 extra models
  /// (+2 MB peak RSS for MAMDR on Amazon-13 at --kernel-threads 4).
  metrics::ScoreFn Scorer();

  /// Always true: Scorer() may be called concurrently from any number of
  /// threads. perfbench/workloads.cc still reads it.
  bool ScorerIsThreadSafe() const { return true; }

  /// Models in Scorer()'s pool: the model plus every replica built so far
  /// for concurrent callers.
  int64_t scoring_pool_size() const;

  /// Per-domain AUC of any split with this framework's Scorer(). Domains
  /// are scored concurrently on a per-call ThreadPool of
  /// min(KernelThreads(), domains) threads.
  std::vector<double> Evaluate(metrics::Split split);

  /// Reports per-domain AUCs of a split to the telemetry sink, as
  /// Evaluate() does, for callers that score the split themselves.
  void RecordEval(metrics::Split split, const std::vector<double>& aucs) const;

  /// Per-domain test AUC with this framework's Scorer().
  std::vector<double> EvaluateTest();
  double AverageTestAuc();

  models::CtrModel* model() { return model_; }
  const TrainConfig& config() const { return config_; }

  /// Work counters for complexity comparisons (§III-C / §IV-C): how many
  /// single-domain training passes this framework has consumed, and how
  /// many mini-batch forward/backward passes it has run — one per batch
  /// whether or not an optimizer step follows it (MLDG's meta-step runs n,
  /// MAML's query gradient one per domain). DN grows O(n) in the domain
  /// count; CDR-style transfer and PCGrad grow O(n^2). Composite frameworks
  /// (MAMDR) override these to sum their components.
  virtual int64_t domain_pass_count() const { return domain_pass_count_; }
  virtual int64_t batch_step_count() const { return batch_step_count_; }

  /// Tensor allocations of this framework's training steps (composites sum
  /// their components'): a steady-state step allocates none.
  virtual StepStats step_stats() const { return step_buffers_.stats(); }

  /// Frees the cached step buffers. TrainEpoch() calls it; a framework
  /// driven through another entry point (MAMDR's DR phase, a PS worker's
  /// DrForDomain calls) is released by whatever drives it.
  void ReleaseStepBuffers() { step_buffers_.Release(); }

 protected:
  /// The algorithm body of one outer epoch, implemented per framework.
  virtual void DoTrainEpoch() = 0;

  /// TrainPass over `rows` (default: the domain's training split) with the
  /// framework's model and RNG; max_batches=0 means a full pass. Returns the
  /// number of batches consumed and advances the work counters. While a
  /// telemetry sink is installed, also accumulates the domain's totals for
  /// the epoch's DomainEpochRecords. In-process hooks cannot fail: a non-OK
  /// hook Status aborts.
  int64_t TrainDomainPass(int64_t domain, optim::Optimizer* opt,
                          int64_t max_batches = 0, const PassHooks& hooks = {},
                          const std::vector<data::Interaction>* rows = nullptr);

  /// Every domain id, in an order freshly shuffled with the training RNG.
  std::vector<int64_t> ShuffledDomains();

  /// Pairwise gradient-conflict statistics of the per-domain full-batch
  /// gradients at the current parameters (§III-B diagnostics). Uses a local
  /// RNG and eval-mode context so the training RNG stream is untouched;
  /// leaves all parameter gradients zeroed.
  metrics::ConflictReport MeasureDomainConflict();

  /// Fresh optimizer over params per config.inner_optimizer.
  std::unique_ptr<optim::Optimizer> MakeInnerOptimizer(float lr);

  models::CtrModel* model_;
  const data::MultiDomainDataset* dataset_;
  TrainConfig config_;
  std::vector<autograd::Var> params_;
  /// Writes domain d's parameters into `dst`, a parameter list of the
  /// model's structure (params_ or a pooled replica's), before it is
  /// scored, for frameworks that keep them outside the model (MAMDR's
  /// θS + θd of Eq. 4, the per-domain copies of Separate, CDR-Transfer and
  /// Alternate+Finetune). Empty while every domain scores with the model's
  /// own parameters. Called concurrently for distinct `dst`.
  std::function<void(int64_t domain, const std::vector<autograd::Var>& dst)>
      install_domain_;
  Rng rng_;
  int64_t domain_pass_count_ = 0;
  int64_t batch_step_count_ = 0;
  int64_t epochs_completed_ = 0;
  /// The training steps' reused tensor storage; TrainDomainPass runs on it.
  StepBuffers step_buffers_;

 private:
  // One model of the scoring pool and its parameter list.
  struct PooledModel {
    models::CtrModel* model;
    std::vector<autograd::Var> params;
    std::unique_ptr<models::CtrModel> owned;  // null for model_
  };

  // An idle pooled model, or a replica built from model_->spec() when
  // every one is busy; waits when model_ has no spec.
  PooledModel* TakeModel();
  void ReturnModel(PooledModel* m);

  // Per-domain telemetry accumulators for the epoch in flight; only
  // maintained while a telemetry sink is installed.
  std::vector<PassTelemetry> epoch_acc_;

  mutable Mutex pool_mu_{MAMDR_LOCK_CLASS("core.framework.scoring_pool")};
  CondVar pool_cv_;
  std::vector<std::unique_ptr<PooledModel>> pool_ MAMDR_GUARDED_BY(pool_mu_);
  std::vector<PooledModel*> idle_ MAMDR_GUARDED_BY(pool_mu_);
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_FRAMEWORK_H_

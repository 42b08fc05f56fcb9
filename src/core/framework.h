// Learning-framework interface: the model-agnostic training layer.
//
// A Framework owns *how* a model's parameters are optimized across domains,
// never *what* the model computes. Every algorithm compared in the paper
// (Table X) implements this interface: Alternate, Alternate+Finetune,
// WeightedLoss, PCGrad, MAML, Reptile, MLDG, DN, DR, and MAMDR.
#ifndef MAMDR_CORE_FRAMEWORK_H_
#define MAMDR_CORE_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "metrics/conflict_probe.h"
#include "metrics/evaluator.h"
#include "models/ctr_model.h"
#include "optim/optimizer.h"

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

  /// InvalidArgument naming the first field a framework would abort on:
  /// epochs or batch_size below 1, or an unknown inner_optimizer. CLI
  /// front ends call this once after reading their flags.
  Status Validate() const;
};

class Framework {
 public:
  Framework(models::CtrModel* model, const data::MultiDomainDataset* dataset,
            TrainConfig config);
  virtual ~Framework() = default;

  /// One outer epoch of the algorithm. Non-virtual wrapper: opens a trace
  /// span named "<name>_epoch", runs the algorithm (DoTrainEpoch), then — if
  /// a telemetry sink is installed — flushes one DomainEpochRecord per
  /// domain trained this epoch (mean loss, batch count, gradient norm).
  void TrainEpoch();

  /// config.epochs calls to TrainEpoch().
  void Train();

  /// How many TrainEpoch() calls have completed on this framework.
  int64_t epochs_completed() const { return epochs_completed_; }

  /// Framework name as it appears in the paper's tables.
  virtual std::string name() const = 0;

  /// Scoring callback for evaluation. The default scores with the model's
  /// current parameters; frameworks with per-domain parameters override it
  /// to install the right parameters per domain.
  virtual metrics::ScoreFn Scorer();

  /// Whether Scorer() may be called concurrently from multiple threads.
  /// The default scorer is a pure forward pass and is; overrides that
  /// install per-domain parameters into the shared model must return false
  /// so Evaluate() falls back to serial per-domain evaluation.
  virtual bool ScorerIsThreadSafe() const { return true; }

  /// Per-domain AUC of any split with this framework's Scorer(). Domains
  /// are evaluated on the kernel pool when ScorerIsThreadSafe().
  std::vector<double> Evaluate(metrics::Split split);

  /// Per-domain test AUC with this framework's Scorer().
  std::vector<double> EvaluateTest();
  double AverageTestAuc();

  models::CtrModel* model() { return model_; }
  const TrainConfig& config() const { return config_; }

  /// Work counters for complexity comparisons (§III-C / §IV-C): how many
  /// single-domain training passes and mini-batch steps this framework has
  /// consumed. DN grows O(n) in the domain count; CDR-style transfer and
  /// PCGrad grow O(n^2). Composite frameworks (MAMDR) override these to sum
  /// their components.
  virtual int64_t domain_pass_count() const { return domain_pass_count_; }
  virtual int64_t batch_step_count() const { return batch_step_count_; }

 protected:
  /// The algorithm body of one outer epoch, implemented per framework.
  virtual void DoTrainEpoch() = 0;

  /// One pass of mini-batch training on a single domain with the given
  /// optimizer. max_batches=0 means the full epoch worth of batches.
  /// Returns the number of batches consumed. When a telemetry sink is
  /// installed, also accumulates per-domain loss / gradient-norm totals for
  /// the epoch's DomainEpochRecords.
  int64_t TrainDomainPass(int64_t domain, optim::Optimizer* opt,
                          int64_t max_batches = 0);

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
  Rng rng_;
  int64_t domain_pass_count_ = 0;
  int64_t batch_step_count_ = 0;
  int64_t epochs_completed_ = 0;

 private:
  // Per-domain telemetry accumulators for the epoch in flight; only
  // maintained while a telemetry sink is installed.
  struct EpochAccumulator {
    double loss_sum = 0.0;
    double grad_sq_sum = 0.0;
    int64_t batches = 0;
  };
  std::vector<EpochAccumulator> epoch_acc_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_FRAMEWORK_H_

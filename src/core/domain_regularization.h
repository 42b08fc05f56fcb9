// Domain Regularization (Algorithm 2) — the paper's second contribution.
//
// Domain-specific parameters θᵢ are composed with the shared parameters as
// Θ = θS + θᵢ (Eq. 4). For a target domain i, DR samples k helper domains;
// for each helper j it updates a scratch copy first on j, THEN on i (fixed
// order — the i-update regularizes j's contribution, Eq. 22), and applies
// the meta step θᵢ ← θᵢ + γ(θ̃ᵢ − θᵢ) (Eq. 8). This imports only the helper
// information that lowers the target's loss — the cure for specific-parameter
// overfitting on sparse domains.
//
// As a standalone framework ("DR" row of Table X), the shared parameters are
// trained with an Alternate pass and the specific parameters with DR. MAMDR
// replaces the Alternate pass with DN.
#ifndef MAMDR_CORE_DOMAIN_REGULARIZATION_H_
#define MAMDR_CORE_DOMAIN_REGULARIZATION_H_

#include <memory>

#include "core/framework.h"
#include "core/param_store.h"

namespace mamdr {
namespace core {

class DomainRegularization : public Framework {
 public:
  /// If `external_store` is null the framework owns a store and trains the
  /// shared parameters itself (Alternate); otherwise it only runs the DR
  /// phase against the given store (MAMDR composition).
  DomainRegularization(models::CtrModel* model,
                       const data::MultiDomainDataset* dataset,
                       TrainConfig config,
                       SharedSpecificStore* external_store = nullptr);

  void DoTrainEpoch() override;
  std::string name() const override { return "DR"; }

  /// Algorithm 2 for every domain's specific parameters.
  void DrPhase();

  /// Algorithm 2 for one target domain (used by the distributed workers,
  /// which run DR only for the domains they own).
  void DrForDomain(int64_t target);

  SharedSpecificStore* store() {
    return external_store_ != nullptr ? external_store_ : owned_store_.get();
  }

 private:
  std::unique_ptr<SharedSpecificStore> owned_store_;
  SharedSpecificStore* external_store_;
  std::unique_ptr<optim::Optimizer> shared_opt_;
  /// One inner optimizer and one composite snapshot serve every helper of
  /// every target: Reset() and SnapshotInto() reuse their storage.
  std::unique_ptr<optim::Optimizer> inner_opt_;
  std::vector<Tensor> composite_;
  /// Completed DrPhase() calls — the epoch index on DrHelperRecords (the
  /// base epochs_completed_ does not advance when MAMDR calls DrPhase()
  /// directly).
  int64_t dr_phase_count_ = 0;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_DOMAIN_REGULARIZATION_H_

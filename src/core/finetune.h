// Alternate+Finetune and Separate training.
//
// Alternate+Finetune: alternate-train shared Θ, then finetune a copy on each
// domain to get per-domain models (the traditional specific-parameter
// recipe of §IV-B). Separate: train an independent copy per domain from the
// initial point — the "one model per domain" strawman of Fig. 1(b) and the
// RAW+Separate row of Table VIII.
#ifndef MAMDR_CORE_FINETUNE_H_
#define MAMDR_CORE_FINETUNE_H_

#include <memory>
#include <vector>

#include "core/alternate.h"

namespace mamdr {
namespace core {

class AlternateFinetune : public Framework {
 public:
  AlternateFinetune(models::CtrModel* model,
                    const data::MultiDomainDataset* dataset,
                    TrainConfig config);

  void DoTrainEpoch() override;
  std::string name() const override { return "Alternate+Finetune"; }

 private:
  /// Runs after the last epoch: finetunes one copy of Θ per domain and
  /// from then on scores each domain with its own copy.
  void FinalizeFinetune();

  std::unique_ptr<optim::Optimizer> opt_;
  int64_t epochs_done_ = 0;
  std::vector<std::vector<Tensor>> per_domain_params_;
};

class Separate : public Framework {
 public:
  Separate(models::CtrModel* model, const data::MultiDomainDataset* dataset,
           TrainConfig config);

  void DoTrainEpoch() override;
  std::string name() const override { return "Separate"; }

 private:
  std::vector<std::vector<Tensor>> per_domain_params_;
  /// One persistent optimizer per domain so Adam/Adagrad state tracks its
  /// own domain's trajectory.
  std::vector<std::unique_ptr<optim::Optimizer>> opts_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_FINETUNE_H_

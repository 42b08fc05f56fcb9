// Reptile (Nichol et al., 2018) treating each domain as a task.
//
// Per task: snapshot Θ, run a few inner steps on that domain, interpolate
// Θ <- Θ + β(Θ̃ − Θ), restore and move to the next task. The interpolation
// happens after EVERY single domain, so the implicit inner-product term is
// maximized *within* a domain only — the key contrast with DN (§IV-C,
// Fig. 5d vs 5a).
#ifndef MAMDR_CORE_REPTILE_H_
#define MAMDR_CORE_REPTILE_H_

#include "core/framework.h"

namespace mamdr {
namespace core {

class Reptile : public Framework {
 public:
  Reptile(models::CtrModel* model, const data::MultiDomainDataset* dataset,
          TrainConfig config);

  void DoTrainEpoch() override;
  std::string name() const override { return "Reptile"; }

 protected:
  /// Hooks of every per-task inner pass; empty for plain Reptile. GradDrop
  /// is this schedule with a gradient mask in after_backward.
  PassHooks inner_hooks_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_REPTILE_H_

// MAMDR (Algorithm 3): Domain Negotiation for the shared parameters +
// Domain Regularization for every domain's specific parameters, unified over
// one shared/specific store. Model agnostic: composes with any CtrModel.
#ifndef MAMDR_CORE_MAMDR_H_
#define MAMDR_CORE_MAMDR_H_

#include <memory>

#include "core/domain_negotiation.h"
#include "core/domain_regularization.h"
#include "core/param_store.h"

namespace mamdr {
namespace core {

class Mamdr : public Framework {
 public:
  Mamdr(models::CtrModel* model, const data::MultiDomainDataset* dataset,
        TrainConfig config);

  /// Algorithm 3 body: line 2 (DN on θS), lines 3-5 (DR on every θᵢ).
  void DoTrainEpoch() override;
  std::string name() const override { return "MAMDR"; }

  SharedSpecificStore* store() { return store_.get(); }

  /// Algorithm 3 consumes (k+1)n domain passes per epoch: n from DN plus
  /// 2kn capped passes from DR.
  int64_t domain_pass_count() const override {
    return dn_->domain_pass_count() + dr_->domain_pass_count();
  }
  int64_t batch_step_count() const override {
    return dn_->batch_step_count() + dr_->batch_step_count();
  }
  StepStats step_stats() const override {
    StepStats s = dn_->step_stats();
    s += dr_->step_stats();
    return s;
  }

  /// Onboard a new domain at serving time (the platform path of Fig. 2):
  /// grows the store with zero-initialized specific parameters. The caller
  /// must have added the domain's data to the dataset beforehand.
  int64_t AddDomain();

 private:
  std::unique_ptr<SharedSpecificStore> store_;
  std::unique_ptr<DomainNegotiation> dn_;
  std::unique_ptr<DomainRegularization> dr_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_MAMDR_H_

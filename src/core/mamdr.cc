#include "core/mamdr.h"

namespace mamdr {
namespace core {

Mamdr::Mamdr(models::CtrModel* model, const data::MultiDomainDataset* dataset,
             TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  store_ = std::make_unique<SharedSpecificStore>(params_,
                                                 dataset_->num_domains());
  TrainConfig sub = config_;
  sub.seed = rng_.NextU64();
  dn_ = std::make_unique<DomainNegotiation>(model_, dataset_, sub);
  sub.seed = rng_.NextU64();
  dr_ = std::make_unique<DomainRegularization>(model_, dataset_, sub,
                                               store_.get());
  install_domain_ = [this](int64_t d, const std::vector<autograd::Var>& dst) {
    store_->InstallComposite(d, dst);
  };
}

void Mamdr::DoTrainEpoch() {
  // Line 2: update θS with Domain Negotiation.
  store_->InstallShared();
  dn_->TrainEpoch();
  store_->UpdateSharedFromParams();
  // Lines 3-5: update every θᵢ with Domain Regularization.
  dr_->DrPhase();
}

int64_t Mamdr::AddDomain() { return store_->AddDomain(); }

}  // namespace core
}  // namespace mamdr

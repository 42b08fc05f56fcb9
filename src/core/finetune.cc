#include "core/finetune.h"

#include "optim/param_snapshot.h"

namespace mamdr {
namespace core {

AlternateFinetune::AlternateFinetune(models::CtrModel* model,
                                     const data::MultiDomainDataset* dataset,
                                     TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  opt_ = MakeInnerOptimizer(config_.inner_lr);
}

void AlternateFinetune::DoTrainEpoch() {
  for (int64_t d : ShuffledDomains()) TrainDomainPass(d, opt_.get());
  ++epochs_done_;
  if (epochs_done_ == config_.epochs) FinalizeFinetune();
}

void AlternateFinetune::FinalizeFinetune() {
  const std::vector<Tensor> base = optim::Snapshot(params_);
  per_domain_params_.clear();
  for (int64_t d = 0; d < dataset_->num_domains(); ++d) {
    optim::Restore(params_, base);
    auto opt = MakeInnerOptimizer(config_.inner_lr);
    for (int64_t e = 0; e < config_.finetune_epochs; ++e) {
      TrainDomainPass(d, opt.get());
    }
    per_domain_params_.push_back(optim::Snapshot(params_));
  }
  optim::Restore(params_, base);
  install_domain_ = [this](int64_t d) {
    optim::Restore(params_, per_domain_params_[static_cast<size_t>(d)]);
  };
}

Separate::Separate(models::CtrModel* model,
                   const data::MultiDomainDataset* dataset, TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  // Every domain starts from the same initialization.
  const std::vector<Tensor> base = optim::Snapshot(params_);
  per_domain_params_.assign(static_cast<size_t>(dataset_->num_domains()),
                            base);
  for (int64_t d = 0; d < dataset_->num_domains(); ++d) {
    opts_.push_back(MakeInnerOptimizer(config_.inner_lr));
  }
  install_domain_ = [this](int64_t d) {
    optim::Restore(params_, per_domain_params_[static_cast<size_t>(d)]);
  };
}

void Separate::DoTrainEpoch() {
  for (int64_t d = 0; d < dataset_->num_domains(); ++d) {
    optim::Restore(params_, per_domain_params_[static_cast<size_t>(d)]);
    TrainDomainPass(d, opts_[static_cast<size_t>(d)].get());
    per_domain_params_[static_cast<size_t>(d)] = optim::Snapshot(params_);
  }
}

}  // namespace core
}  // namespace mamdr

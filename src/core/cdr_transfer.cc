#include "core/cdr_transfer.h"

#include "optim/param_snapshot.h"

namespace mamdr {
namespace core {

CdrTransfer::CdrTransfer(models::CtrModel* model,
                         const data::MultiDomainDataset* dataset,
                         TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  per_domain_params_.assign(static_cast<size_t>(dataset_->num_domains()),
                            optim::Snapshot(params_));
  install_domain_ = [this](int64_t d, const std::vector<autograd::Var>& dst) {
    optim::Restore(dst, per_domain_params_[static_cast<size_t>(d)]);
  };
}

void CdrTransfer::DoTrainEpoch() {
  const int64_t n = dataset_->num_domains();
  for (int64_t target = 0; target < n; ++target) {
    optim::Restore(params_, per_domain_params_[static_cast<size_t>(target)]);
    auto opt = MakeInnerOptimizer(config_.inner_lr);
    // Transfer from every auxiliary domain (the O(n^2) part)...
    for (int64_t aux = 0; aux < n; ++aux) {
      if (aux == target) continue;
      TrainDomainPass(aux, opt.get(), config_.cdr_transfer_batches);
    }
    // ...then adapt on the target with a full pass.
    TrainDomainPass(target, opt.get());
    per_domain_params_[static_cast<size_t>(target)] =
        optim::Snapshot(params_);
  }
}

}  // namespace core
}  // namespace mamdr

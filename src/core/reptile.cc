#include "core/reptile.h"

#include "optim/param_snapshot.h"

namespace mamdr {
namespace core {

Reptile::Reptile(models::CtrModel* model,
                 const data::MultiDomainDataset* dataset, TrainConfig config)
    : Framework(model, dataset, std::move(config)) {}

void Reptile::DoTrainEpoch() {
  for (int64_t d : ShuffledDomains()) {
    const std::vector<Tensor> theta = optim::Snapshot(params_);
    auto inner = MakeInnerOptimizer(config_.inner_lr);
    TrainDomainPass(d, inner.get(), /*max_batches=*/0, inner_hooks_);
    // Θ <- Θ + β(Θ̃ − Θ), per task.
    optim::MetaInterpolate(params_, theta, config_.outer_lr);
  }
}

}  // namespace core
}  // namespace mamdr

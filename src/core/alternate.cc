#include "core/alternate.h"

namespace mamdr {
namespace core {

Alternate::Alternate(models::CtrModel* model,
                     const data::MultiDomainDataset* dataset,
                     TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  opt_ = MakeInnerOptimizer(config_.inner_lr);
}

void Alternate::DoTrainEpoch() {
  for (int64_t d : ShuffledDomains()) TrainDomainPass(d, opt_.get());
}

}  // namespace core
}  // namespace mamdr

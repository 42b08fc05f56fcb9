#include "core/maml.h"

#include "data/batch.h"
#include "optim/param_snapshot.h"
#include "optim/sgd.h"

namespace mamdr {
namespace core {

Maml::Maml(models::CtrModel* model, const data::MultiDomainDataset* dataset,
           TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  // Static support/query split per domain (half and half).
  for (int64_t d = 0; d < dataset_->num_domains(); ++d) {
    const auto& train = dataset_->domain(d).train;
    const size_t half = train.size() / 2;
    support_.emplace_back(train.begin(),
                          train.begin() + static_cast<int64_t>(half));
    query_.emplace_back(train.begin() + static_cast<int64_t>(half),
                        train.end());
  }
  meta_opt_ = MakeInnerOptimizer(config_.inner_lr);
}

void Maml::DoTrainEpoch() {
  nn::Context ctx{/*training=*/true, &rng_};
  for (int64_t d : ShuffledDomains()) {
    if (support_[static_cast<size_t>(d)].empty() ||
        query_[static_cast<size_t>(d)].empty()) {
      continue;
    }
    const std::vector<Tensor> theta = optim::Snapshot(params_);
    // Inner adaptation on the support set (plain SGD, as in MAML).
    optim::Sgd inner(params_, config_.inner_lr);
    TrainDomainPass(d, &inner, /*max_batches=*/0, /*hooks=*/{},
                    &support_[static_cast<size_t>(d)]);
    // Query gradient at the adapted point == first-order meta-gradient.
    data::Batch q = data::Batcher::Sample(
        query_[static_cast<size_t>(d)],
        std::min<int64_t>(config_.batch_size * 2,
                          static_cast<int64_t>(
                              query_[static_cast<size_t>(d)].size())),
        &rng_);
    for (auto& p : params_) p.ZeroGrad();
    model_->Loss(q, d, ctx).Backward();
    ++batch_step_count_;
    const std::vector<Tensor> meta_grad = optim::GradSnapshot(params_);
    // Apply the meta-gradient at the *initial* parameters.
    optim::Restore(params_, theta);
    optim::SetGrads(params_, meta_grad);
    meta_opt_->Step();
  }
}

}  // namespace core
}  // namespace mamdr

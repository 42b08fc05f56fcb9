#include "core/mldg.h"

#include "data/batch.h"
#include "optim/param_snapshot.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace core {

Mldg::Mldg(models::CtrModel* model, const data::MultiDomainDataset* dataset,
           TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  opt_ = MakeInnerOptimizer(config_.inner_lr);
}

void Mldg::DoTrainEpoch() {
  const int64_t n = dataset_->num_domains();
  nn::Context ctx{/*training=*/true, &rng_};
  // Number of meta-steps per epoch scales with total batches.
  int64_t steps = 0;
  for (int64_t d = 0; d < n; ++d) {
    steps += (static_cast<int64_t>(dataset_->domain(d).train.size()) +
              config_.batch_size - 1) /
             config_.batch_size;
  }
  steps = std::max<int64_t>(1, steps / std::max<int64_t>(1, n));
  for (int64_t step = 0; step < steps; ++step) {
    // Random split: one held-out meta-test domain, rest meta-train.
    std::vector<int64_t> order = ShuffledDomains();
    const int64_t meta_test = order.back();
    order.pop_back();

    const std::vector<Tensor> theta = optim::Snapshot(params_);
    // Meta-train gradient: accumulate one batch from each meta-train domain.
    for (auto& p : params_) p.ZeroGrad();
    for (int64_t d : order) {
      data::Batch b = data::Batcher::Sample(dataset_->domain(d).train,
                                            config_.batch_size, &rng_);
      model_->Loss(b, d, ctx).Backward();  // grads accumulate
    }
    std::vector<Tensor> g_train = optim::GradSnapshot(params_);
    const float scale =
        order.empty() ? 1.0f : 1.0f / static_cast<float>(order.size());
    for (auto& g : g_train) ops::ScaleInPlace(&g, scale);

    // Virtual step Θ' = Θ − α * g_train, then meta-test gradient at Θ'.
    for (size_t i = 0; i < params_.size(); ++i) {
      ops::AxpyInPlace(&params_[i].mutable_value(), g_train[i],
                       -config_.inner_lr);
    }
    data::Batch bt = data::Batcher::Sample(dataset_->domain(meta_test).train,
                                           config_.batch_size, &rng_);
    for (auto& p : params_) p.ZeroGrad();
    model_->Loss(bt, meta_test, ctx).Backward();
    std::vector<Tensor> g_test = optim::GradSnapshot(params_);

    // Combined first-order update at the original parameters.
    optim::Restore(params_, theta);
    for (size_t i = 0; i < g_train.size(); ++i) {
      ops::AxpyInPlace(&g_train[i], g_test[i], 1.0f);
    }
    optim::SetGrads(params_, g_train);
    opt_->Step();
    // One forward/backward per meta-train domain plus the meta-test one.
    batch_step_count_ += n;
  }
}

}  // namespace core
}  // namespace mamdr

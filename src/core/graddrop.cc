#include "core/graddrop.h"

namespace mamdr {
namespace core {

GradDrop::GradDrop(models::CtrModel* model,
                   const data::MultiDomainDataset* dataset, TrainConfig config,
                   float drop_rate)
    : Reptile(model, dataset, std::move(config)), drop_rate_(drop_rate) {
  MAMDR_CHECK_GE(drop_rate, 0.0f);
  MAMDR_CHECK_LT(drop_rate, 1.0f);
  // At rate 0 no mask is installed, so no RNG draw is made and the run is
  // exactly Reptile's.
  if (drop_rate_ == 0.0f) return;
  // Inverted-dropout mask on every gradient element before the inner step.
  const float keep_scale = 1.0f / (1.0f - drop_rate_);
  inner_hooks_.after_backward = [this, keep_scale](const data::Batch&) {
    for (auto& p : params_) {
      if (!p.has_grad()) continue;
      float* g = p.mutable_grad().data();
      const int64_t n = p.grad().size();
      for (int64_t i = 0; i < n; ++i) {
        g[i] = rng_.Bernoulli(drop_rate_) ? 0.0f : g[i] * keep_scale;
      }
    }
    return Status::OK();
  };
}

}  // namespace core
}  // namespace mamdr

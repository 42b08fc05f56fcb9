#include "optim/sgd.h"

#include "tensor/tensor_ops.h"

namespace mamdr {
namespace optim {

Sgd::Sgd(std::vector<Var> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::Step() {
  if (momentum_ > 0.0f && velocity_.empty()) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_) velocity_.emplace_back(p.value().shape());
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.has_grad()) continue;
    if (momentum_ > 0.0f) {
      ops::ScaleInPlace(&velocity_[i], momentum_);
      ops::AxpyInPlace(&velocity_[i], p.grad(), 1.0f);
      ops::AxpyInPlace(&p.mutable_value(), velocity_[i], -lr_);
    } else {
      ops::AxpyInPlace(&p.mutable_value(), p.grad(), -lr_);
    }
  }
}

void Sgd::Reset() {
  for (Tensor& v : velocity_) v.Fill(0.0f);
}

}  // namespace optim
}  // namespace mamdr

#include "optim/adagrad.h"

#include "tensor/simd.h"

namespace mamdr {
namespace optim {

Adagrad::Adagrad(std::vector<Var> params, float lr, float eps)
    : Optimizer(std::move(params), lr), eps_(eps) {}

void Adagrad::Step() {
  if (accum_.empty()) {
    accum_.reserve(params_.size());
    for (const auto& p : params_) accum_.emplace_back(p.value().shape());
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    ops::simd::AdagradUpdate(lr_, eps_, g.data(), accum_[i].data(),
                             p.mutable_value().data(), g.size());
  }
}

void Adagrad::Reset() {
  for (Tensor& a : accum_) a.Fill(0.0f);
}

}  // namespace optim
}  // namespace mamdr

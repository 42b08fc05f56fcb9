#include "optim/adam.h"

#include <cmath>

#include "tensor/simd.h"

namespace mamdr {
namespace optim {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  if (m_.empty()) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto& p : params_) {
      m_.emplace_back(p.value().shape());
      v_.emplace_back(p.value().shape());
    }
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const ops::simd::AdamStep step{lr_, beta1_, beta2_, eps_, bc1, bc2};
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    ops::simd::AdamUpdate(step, g.data(), m_[i].data(), v_[i].data(),
                          p.mutable_value().data(), g.size());
  }
}

void Adam::Reset() {
  for (Tensor& m : m_) m.Fill(0.0f);
  for (Tensor& v : v_) v.Fill(0.0f);
  t_ = 0;
}

std::vector<Tensor> Adam::slots() const {
  std::vector<Tensor> out = m_;
  out.insert(out.end(), v_.begin(), v_.end());
  return out;
}

}  // namespace optim
}  // namespace mamdr

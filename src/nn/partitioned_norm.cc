#include "nn/partitioned_norm.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace nn {

PartitionedNorm::PartitionedNorm(int64_t features, int64_t num_domains,
                                 float momentum, float eps)
    : features_(features),
      num_domains_(num_domains),
      momentum_(momentum),
      eps_(eps) {
  gamma_shared_ = RegisterParameter("gamma", init::Ones({1, features}));
  beta_shared_ = RegisterParameter("beta", init::Zeros({1, features}));
  gamma_domain_.reserve(num_domains);
  beta_domain_.reserve(num_domains);
  for (int64_t d = 0; d < num_domains; ++d) {
    gamma_domain_.push_back(RegisterParameter(
        "gamma_d" + std::to_string(d), init::Ones({1, features})));
    beta_domain_.push_back(RegisterParameter(
        "beta_d" + std::to_string(d), init::Zeros({1, features})));
  }
  moving_mean_.assign(num_domains, Tensor({1, features}));
  moving_var_.assign(num_domains, Tensor({1, features}, 1.0f));
  stats_initialized_.assign(num_domains, false);
}

Var PartitionedNorm::Forward(const Var& x, int64_t domain,
                             const Context& ctx) {
  MAMDR_CHECK_GE(domain, 0);
  MAMDR_CHECK_LT(domain, num_domains_);
  const int64_t b = x.value().rows();
  Tensor mean({1, features_});
  Tensor var({1, features_});
  if (ctx.training && b > 1) {
    const float* px = x.value().data();
    float* pmean = mean.data();
    float* pvar = var.data();
    for (int64_t j = 0; j < features_; ++j) {
      double m = 0.0;
      for (int64_t i = 0; i < b; ++i) m += px[i * features_ + j];
      m /= b;
      double v = 0.0;
      for (int64_t i = 0; i < b; ++i) {
        const double d = px[i * features_ + j] - m;
        v += d * d;
      }
      v /= b;
      pmean[j] = static_cast<float>(m);
      pvar[j] = static_cast<float>(v);
    }
    // Update moving statistics for this domain.
    auto& mm = moving_mean_[static_cast<size_t>(domain)];
    auto& mv = moving_var_[static_cast<size_t>(domain)];
    if (!stats_initialized_[static_cast<size_t>(domain)]) {
      mm = mean.Clone();
      mv = var.Clone();
      stats_initialized_[static_cast<size_t>(domain)] = true;
    } else {
      ops::ScaleInPlace(&mm, momentum_);
      ops::AxpyInPlace(&mm, mean, 1.0f - momentum_);
      ops::ScaleInPlace(&mv, momentum_);
      ops::AxpyInPlace(&mv, var, 1.0f - momentum_);
    }
  } else {
    mean = moving_mean_[static_cast<size_t>(domain)].Clone();
    var = moving_var_[static_cast<size_t>(domain)].Clone();
  }

  // x_hat = (x - mean) / sqrt(var + eps), statistics treated as constants.
  Tensor neg_mean = ops::MulScalar(mean, -1.0f);
  Tensor inv_std({1, features_});
  {
    const float* pv = var.data();
    float* pi = inv_std.data();
    for (int64_t j = 0; j < features_; ++j) {
      pi[j] = 1.0f / std::sqrt(pv[j] + eps_);
    }
  }
  Var centered = autograd::AddRowVector(x, Var(neg_mean));
  // Row-vector scaling: multiply each column j by inv_std[j]. Reuse
  // AddRowVector-style broadcasting via elementwise trick: build a full
  // matrix is wasteful; instead treat inv_std as constant "row scale".
  Var x_hat = autograd::Mul(
      centered,
      Var(Tensor(centered.value().shape(), [&] {
        std::vector<float> buf(static_cast<size_t>(b * features_));
        const float* pi = inv_std.data();
        for (int64_t i = 0; i < b; ++i) {
          for (int64_t j = 0; j < features_; ++j) {
            buf[static_cast<size_t>(i * features_ + j)] = pi[j];
          }
        }
        return buf;
      }())));

  // Combined scale and bias.
  Var gamma = autograd::Mul(gamma_shared_,
                            gamma_domain_[static_cast<size_t>(domain)]);
  Var beta =
      autograd::Add(beta_shared_, beta_domain_[static_cast<size_t>(domain)]);
  // Broadcast to [B,F] via MatMul(ones_col [B,1], gamma [1,F]) so gradients
  // flow back into the [1,F] parameters naturally.
  Tensor ones_col({b, 1}, 1.0f);
  Var gamma_full = autograd::MatMul(Var(ones_col), gamma);
  Var beta_full = autograd::MatMul(Var(ones_col), beta);
  return autograd::Add(autograd::Mul(x_hat, gamma_full), beta_full);
}

void PartitionedNorm::CopyOwnBuffersFrom(const Module& src) {
  const auto& o = dynamic_cast<const PartitionedNorm&>(src);
  MAMDR_CHECK_EQ(o.num_domains_, num_domains_);
  MAMDR_CHECK_EQ(o.features_, features_);
  for (size_t d = 0; d < moving_mean_.size(); ++d) {
    moving_mean_[d] = o.moving_mean_[d].Clone();
    moving_var_[d] = o.moving_var_[d].Clone();
  }
  stats_initialized_ = o.stats_initialized_;
}

}  // namespace nn
}  // namespace mamdr

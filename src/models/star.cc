#include "models/star.h"

#include "nn/init.h"

namespace mamdr {
namespace models {

StarLinear::StarLinear(int64_t in_features, int64_t out_features,
                       int64_t num_domains, Rng* rng)
    : out_features_(out_features) {
  weight_shared_ = RegisterParameter(
      "weight", nn::init::XavierUniform(in_features, out_features, rng));
  bias_shared_ = RegisterParameter("bias",
                                   nn::init::Zeros({1, out_features}));
  for (int64_t d = 0; d < num_domains; ++d) {
    weight_domain_.push_back(
        RegisterParameter("weight_d" + std::to_string(d),
                          nn::init::Ones({in_features, out_features})));
    bias_domain_.push_back(RegisterParameter(
        "bias_d" + std::to_string(d), nn::init::Zeros({1, out_features})));
  }
}

Var StarLinear::Forward(const Var& x, int64_t domain, bool relu) const {
  MAMDR_CHECK_GE(domain, 0);
  MAMDR_CHECK_LT(domain, static_cast<int64_t>(weight_domain_.size()));
  Var w = autograd::Mul(weight_shared_,
                        weight_domain_[static_cast<size_t>(domain)]);
  Var b =
      autograd::Add(bias_shared_, bias_domain_[static_cast<size_t>(domain)]);
  return autograd::Linear(x, w, b, relu);
}

Star::Star(const ModelConfig& config, Rng* rng) {
  encoder_ = std::make_unique<FeatureEncoder>(config, rng);
  pn_ = std::make_unique<nn::PartitionedNorm>(encoder_->concat_dim(),
                                              config.num_domains);
  RegisterModule("encoder", encoder_.get());
  RegisterModule("pn", pn_.get());
  int64_t in = encoder_->concat_dim();
  for (int64_t h : config.hidden) {
    layers_.push_back(
        std::make_unique<StarLinear>(in, h, config.num_domains, rng));
    RegisterModule("star_fc" + std::to_string(layers_.size() - 1),
                   layers_.back().get());
    in = h;
  }
  head_ = std::make_unique<StarLinear>(in, 1, config.num_domains, rng);
  RegisterModule("star_head", head_.get());
}

Var Star::Forward(const data::Batch& batch, int64_t domain,
                  const nn::Context& ctx) {
  Var x = encoder_->Concat(batch);
  Var h = pn_->Forward(x, domain, ctx);
  for (const auto& layer : layers_) {
    h = layer->Forward(h, domain, /*relu=*/true);
  }
  return head_->Forward(h, domain);
}

}  // namespace models
}  // namespace mamdr

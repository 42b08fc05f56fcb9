#include "nn/mlp_block.h"

namespace mamdr {
namespace nn {

MlpBlock::MlpBlock(int64_t in_features, const std::vector<int64_t>& hidden,
                   Rng* rng, float dropout, bool final_activation)
    : dropout_(dropout), final_activation_(final_activation) {
  MAMDR_CHECK(!hidden.empty());
  int64_t in = in_features;
  for (size_t i = 0; i < hidden.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(in, hidden[i], rng));
    RegisterModule("fc" + std::to_string(i), layers_.back().get());
    in = hidden[i];
  }
  out_features_ = in;
}

Var MlpBlock::Forward(const Var& x, const Context& ctx) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = (i + 1 == layers_.size());
    const bool relu = !last || final_activation_;
    h = layers_[i]->Forward(h, relu);
    if (relu && dropout_ > 0.0f) {
      h = autograd::Dropout(h, dropout_, ctx.rng, ctx.training);
    }
  }
  return h;
}

}  // namespace nn
}  // namespace mamdr

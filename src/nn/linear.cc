#include "nn/linear.h"

#include "nn/init.h"

namespace mamdr {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      use_bias_(use_bias) {
  weight_ = RegisterParameter(
      "weight", init::XavierUniform(in_features, out_features, rng));
  if (use_bias_) {
    bias_ = RegisterParameter("bias", init::Zeros({1, out_features}));
  }
}

Var Linear::Forward(const Var& x, bool relu) const {
  return autograd::Linear(x, weight_, bias_, relu);
}

}  // namespace nn
}  // namespace mamdr

// Fully connected layer.
#ifndef MAMDR_NN_LINEAR_H_
#define MAMDR_NN_LINEAR_H_

#include "nn/module.h"

namespace mamdr {
namespace nn {

/// y = x W + b, x: [B, in], W: [in, out], b: [1, out]; one fused
/// autograd::Linear node.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool use_bias = true);

  /// x W + b, then ReLU when `relu`.
  Var Forward(const Var& x, bool relu = false) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool use_bias_;
  Var weight_;
  Var bias_;
};

}  // namespace nn
}  // namespace mamdr

#endif  // MAMDR_NN_LINEAR_H_

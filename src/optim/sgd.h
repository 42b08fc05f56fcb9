// Stochastic gradient descent (optional momentum).
#ifndef MAMDR_OPTIM_SGD_H_
#define MAMDR_OPTIM_SGD_H_

#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace optim {

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Var> params, float lr, float momentum = 0.0f);

  void Step() override;
  void Reset() override;
  std::vector<Tensor> slots() const override { return velocity_; }

 private:
  float momentum_;
  std::vector<Tensor> velocity_;
};

}  // namespace optim
}  // namespace mamdr

#endif  // MAMDR_OPTIM_SGD_H_

// Adam optimizer (Kingma & Ba).
#ifndef MAMDR_OPTIM_ADAM_H_
#define MAMDR_OPTIM_ADAM_H_

#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace optim {

class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;
  void Reset() override;
  std::vector<Tensor> slots() const override;

 private:
  float beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace optim
}  // namespace mamdr

#endif  // MAMDR_OPTIM_ADAM_H_

// Adagrad (Duchi et al.) — the paper's outer-loop optimizer in production.
#ifndef MAMDR_OPTIM_ADAGRAD_H_
#define MAMDR_OPTIM_ADAGRAD_H_

#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace optim {

class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<Var> params, float lr, float eps = 1e-10f);

  void Step() override;
  void Reset() override;
  std::vector<Tensor> slots() const override { return accum_; }

 private:
  float eps_;
  std::vector<Tensor> accum_;
};

}  // namespace optim
}  // namespace mamdr

#endif  // MAMDR_OPTIM_ADAGRAD_H_

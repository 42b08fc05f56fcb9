// Optimizer interface over a parameter vector.
#ifndef MAMDR_OPTIM_OPTIMIZER_H_
#define MAMDR_OPTIM_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace mamdr {
namespace optim {

using autograd::Var;

/// Base optimizer: owns slot state keyed by parameter order. The learning
/// frameworks construct fresh optimizers for inner loops, so Reset() clears
/// state (e.g. Adam moments) between meta-iterations when reused.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params, float lr);
  virtual ~Optimizer() = default;

  /// Apply one update from the gradients currently stored on the params.
  virtual void Step() = 0;

  /// Clear slot state (moments, accumulators).
  virtual void Reset() {}

  /// Zero all parameter gradients.
  void ZeroGrad();

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  const std::vector<Var>& params() const { return params_; }

 protected:
  std::vector<Var> params_;
  float lr_;
};

/// Fresh optimizer over `params` by name: "adam", "sgd" or "adagrad" (the
/// values core::TrainConfig::inner_optimizer accepts). Aborts on any other
/// name; TrainConfig::Validate rejects those first.
std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         std::vector<Var> params, float lr);

}  // namespace optim
}  // namespace mamdr

#endif  // MAMDR_OPTIM_OPTIMIZER_H_

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

/// Base optimizer: owns slot state keyed by parameter order. A framework
/// that restarts an inner loop (DR's per-helper passes) calls Reset()
/// rather than building a fresh optimizer: the state keeps its storage.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params, float lr);
  virtual ~Optimizer() = default;

  /// Apply one update from the gradients currently stored on the params.
  virtual void Step() = 0;

  /// Zero-fill slot state (moments, accumulators, step count) in place:
  /// the next steps match a fresh optimizer's bit for bit, without
  /// allocating it again.
  virtual void Reset() {}

  /// Slot tensors in parameter order (Adam: every m, then every v); empty
  /// before the first Step().
  virtual std::vector<Tensor> slots() const { return {}; }

  /// Zero all parameter gradients.
  void ZeroGrad();

  float lr() const { return lr_; }
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

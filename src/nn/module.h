// Module/Parameter system (torch.nn-style, minimal).
//
// A Module owns named parameters (Vars with requires_grad) and child modules;
// Parameters() flattens the tree in registration order, which gives every
// model a stable parameter vector — the contract the learning frameworks in
// src/core rely on for snapshot/restore meta-updates.
#ifndef MAMDR_NN_MODULE_H_
#define MAMDR_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"

namespace mamdr {
namespace nn {

using autograd::Var;

/// Per-forward context: training mode and the RNG used for dropout.
struct Context {
  bool training = false;
  Rng* rng = nullptr;
};

/// Base class for layers and models.
class Module {
 public:
  virtual ~Module() = default;

  /// All parameters of this module and its children, registration order.
  std::vector<Var> Parameters() const;

  /// (qualified name, parameter) pairs; child params are "child.param".
  std::vector<std::pair<std::string, Var>> NamedParameters() const;

  /// Total scalar count across all parameters.
  int64_t NumParameters() const;

  /// Zero every parameter gradient.
  void ZeroGrad();

  /// Copy the state inference reads beyond Parameters() (moving statistics,
  /// frozen tables) from `src`, a module of the same structure, here and in
  /// every child.
  void CopyBuffersFrom(const Module& src);

 protected:
  /// This module's own part of CopyBuffersFrom; `src` has this module's
  /// dynamic type. Modules without such state keep the no-op.
  virtual void CopyOwnBuffersFrom(const Module& src) { (void)src; }

  /// Register a trainable tensor; returns the parameter Var.
  Var RegisterParameter(const std::string& name, Tensor value);

  /// Register a child module (borrowed pointer; child must outlive parent).
  void RegisterModule(const std::string& name, Module* child);

 private:
  std::vector<std::pair<std::string, Var>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace nn
}  // namespace mamdr

#endif  // MAMDR_NN_MODULE_H_

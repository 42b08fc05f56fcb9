// Parameter snapshot / restore / meta-update utilities.
//
// These four primitives are what make the learning frameworks in src/core
// ~50-line compositions: every meta algorithm in the paper (DN Eq. 3, DR
// Eq. 8, Reptile, MAML first-order, MLDG) is some arrangement of
// snapshot -> inner steps -> interpolate/axpy.
#ifndef MAMDR_OPTIM_PARAM_SNAPSHOT_H_
#define MAMDR_OPTIM_PARAM_SNAPSHOT_H_

#include <vector>

#include "autograd/variable.h"

namespace mamdr {
namespace optim {

using autograd::Var;

/// Deep copy of parameter values.
std::vector<Tensor> Snapshot(const std::vector<Var>& params);

/// Snapshot into `snap`, reusing its tensors when it already holds one of
/// each parameter's shape (it must not share them with anyone who expects
/// the old values); otherwise it becomes a fresh Snapshot.
void SnapshotInto(const std::vector<Var>& params, std::vector<Tensor>* snap);

/// Copy snapshot values back into the parameters.
void Restore(const std::vector<Var>& params, const std::vector<Tensor>& snap);

/// Eq. 3 / Eq. 8 of the paper: p <- snap + beta * (p - snap).
/// With beta=1 this is a no-op (alternate-training degenerate case).
void MetaInterpolate(const std::vector<Var>& params,
                     const std::vector<Tensor>& snap, float beta);

/// Deep copy of parameter gradients (missing grads come back as zeros).
std::vector<Tensor> GradSnapshot(const std::vector<Var>& params);

/// Overwrite parameter .grad buffers.
void SetGrads(const std::vector<Var>& params,
              const std::vector<Tensor>& grads);

/// Flatten a list of same-layout tensors into one vector (conflict probe,
/// PCGrad). Layout follows parameter order.
Tensor Flatten(const std::vector<Tensor>& tensors);

/// Inverse of Flatten given the reference layout.
std::vector<Tensor> Unflatten(const Tensor& flat,
                              const std::vector<Tensor>& layout);

}  // namespace optim
}  // namespace mamdr

#endif  // MAMDR_OPTIM_PARAM_SNAPSHOT_H_

// Reverse-mode automatic differentiation.
//
// A Var is a handle to a graph node holding a value tensor and, after
// Backward(), a gradient tensor. Ops (see ops.h) create new nodes whose
// backward closures accumulate gradients into their parents. Parameters are
// leaf nodes that persist across steps; intermediate nodes are freed when the
// last Var handle to them goes out of scope.
#ifndef MAMDR_AUTOGRAD_VARIABLE_H_
#define MAMDR_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace mamdr {
namespace autograd {

/// Internal graph node. Users interact through Var.
struct Node {
  Tensor value;
  Tensor grad;  // same shape as value; allocated lazily by AccumGrad
  /// True while `grad` is empty or holds only the +0 of a zero fill (set by
  /// ZeroGrad, cleared by every write): the next contribution may then be
  /// written straight into it (see WriteGrad).
  bool grad_zero = true;
  bool requires_grad = false;
  /// Accumulates d(loss)/d(this) into the parents' grads.
  std::function<void(const Tensor& out_grad)> backward;
  std::vector<std::shared_ptr<Node>> parents;
  uint64_t id = 0;  // creation order; backward visits nodes in descending id
  std::string name;  // optional, for debugging
};

/// Handle to a Node. Cheap to copy.
class Var {
 public:
  Var() = default;

  /// Create a leaf. requires_grad=true marks it a trainable parameter.
  explicit Var(Tensor value, bool requires_grad = false,
               std::string name = "");

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Tensor& grad() const { return node_->grad; }
  /// The caller may write, so the gradient no longer counts as zero-filled.
  Tensor& mutable_grad() {
    node_->grad_zero = false;
    return node_->grad;
  }
  bool has_grad() const { return defined() && !node_->grad.empty(); }
  bool requires_grad() const { return node_->requires_grad; }
  const std::string& name() const { return node_->name; }
  const Shape& shape() const { return node_->value.shape(); }

  /// Zero (and allocate if needed) the gradient buffer.
  void ZeroGrad();

  /// Drop the gradient buffer entirely.
  void ClearGrad();

  std::shared_ptr<Node> node() const { return node_; }

  /// Run reverse-mode AD from this (scalar) variable. Accumulates into the
  /// .grad of every reachable node with requires_grad (directly or through
  /// ancestry). Seeds d(this)/d(this) = 1.
  void Backward() const;

 private:
  friend Var MakeOpNode(Tensor value, std::vector<Var> parents,
                        std::function<void(const Tensor&)> backward,
                        std::string name);
  std::shared_ptr<Node> node_;
};

/// Create an interior node produced by an op. `backward` receives the
/// gradient of the loss w.r.t. this node's value and must accumulate into
/// parents via AccumGrad.
Var MakeOpNode(Tensor value, std::vector<Var> parents,
               std::function<void(const Tensor&)> backward,
               std::string name = "");

/// Accumulate `g` into node->grad (allocating a zero buffer on first use):
/// grad += 1 * g elementwise, so a zero-filled grad receives +0 + g, which is
/// g except that -0 becomes +0.
void AccumGrad(const std::shared_ptr<Node>& node, const Tensor& g);

/// node->grad's storage (zero-filled on first use), for backward closures
/// that `+=` their contribution in place instead of building a temporary for
/// AccumGrad; the gradient then no longer counts as zero-filled. `shape` is
/// the shape the caller will write and must equal the node's value shape.
/// Returns nullptr for nodes that collect no gradient (constants and
/// detached nodes).
float* GradBuffer(const std::shared_ptr<Node>& node, const Shape& shape);

/// Where a backward closure writes a contribution it computes in one kernel
/// (see WriteGrad): node->grad itself when this is its first contribution
/// since the gradient was zero-filled (a fresh buffer: zeroed when
/// `accumulates`, otherwise left for the writer to overwrite), else null
/// with *later set, or null with *later clear for nodes that collect no
/// gradient.
Tensor* FirstGradTarget(const std::shared_ptr<Node>& node, bool accumulates,
                        bool* later);

/// Contributes to node->grad the tensor that `write(Tensor* t)` leaves in a
/// tensor t of the node's value shape. With `accumulates` the writer adds
/// onto t (t is zero-filled, as for the MatMul*Add kernels); without it the
/// writer overwrites every element. The first contributor since ZeroGrad
/// writes straight into node->grad, saving AccumGrad's temporary and extra
/// pass; a later one writes a temporary that AccumGrad adds, so two
/// contributions sum in the same order as before.
///
/// A direct write must give AccumGrad's bits, +0 + g, which differ from g
/// only where g is -0. So every writer must be unable to produce -0: an
/// accumulating kernel starts each chain from +0 and never ends at -0, and
/// an overwriting one stores `0.0f + v`.
template <typename Write>
void WriteGrad(const std::shared_ptr<Node>& node, bool accumulates,
               Write&& write) {
  bool later = false;
  if (Tensor* direct = FirstGradTarget(node, accumulates, &later)) {
    write(direct);
    MAMDR_DCHECK_ALL_FINITE(direct->data(), direct->size());
  } else if (later) {
    const Shape& shape = node->value.shape();
    Tensor tmp = accumulates ? Tensor(shape) : Tensor::Uninit(shape);
    write(&tmp);
    AccumGrad(node, tmp);
  }
}

}  // namespace autograd
}  // namespace mamdr

#endif  // MAMDR_AUTOGRAD_VARIABLE_H_

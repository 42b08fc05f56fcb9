#include "autograd/variable.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "autograd/tape.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {
namespace {

std::atomic<uint64_t> g_next_id{1};

/// A node needs a gradient if it is a parameter leaf or an op node that is
/// already tracking a backward pass (op nodes only store a backward fn when
/// some ancestor requires grad, so this check is O(1)).
bool NeedsGrad(const std::shared_ptr<Node>& n) {
  return n->requires_grad || n->backward != nullptr;
}

}  // namespace

Var::Var(Tensor value, bool requires_grad, std::string name) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->id = g_next_id.fetch_add(1);
  node_->name = std::move(name);
}

void Var::ZeroGrad() {
  MAMDR_CHECK(defined());
  if (node_->grad.empty()) {
    node_->grad = Tensor(node_->value.shape());
  } else {
    node_->grad.Fill(0.0f);
  }
  node_->grad_zero = true;
}

void Var::ClearGrad() {
  MAMDR_CHECK(defined());
  node_->grad = Tensor();
  node_->grad_zero = true;
}

void Var::Backward() const {
  MAMDR_CHECK(defined());
  MAMDR_CHECK_EQ(node_->value.size(), 1)
      << "Backward() must start from a scalar";
  // Collect reachable subgraph.
  std::vector<std::shared_ptr<Node>> order;
  std::unordered_set<Node*> seen;
  std::vector<std::shared_ptr<Node>> stack{node_};
  seen.insert(node_.get());
  while (!stack.empty()) {
    auto n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (const auto& p : n->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p);
    }
  }
  // Creation order is a valid topological order (parents precede children),
  // so visiting in descending id propagates gradients correctly.
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a->id > b->id; });
  MAMDR_DCHECK_ALL_FINITE(node_->value.data(), node_->value.size());
  AccumGrad(node_, Tensor(node_->value.shape(), 1.0f));
  for (const auto& n : order) {
    if (n->backward && !n->grad.empty()) {
      // Tape invariant: a node's accumulated gradient has its value's shape
      // (AccumGrad enforces per-accumulation; this pins the replay).
      MAMDR_DCHECK(n->grad.shape() == n->value.shape());
      // Ops that write through GradBuffer copy or mask this gradient into
      // their parents, so checking it here covers what they add.
      MAMDR_DCHECK_ALL_FINITE(n->grad.data(), n->grad.size());
      n->backward(n->grad);
    }
  }
}

Var MakeOpNode(Tensor value, std::vector<Var> parents,
               std::function<void(const Tensor&)> backward, std::string name) {
  Var v;
  v.node_ = std::make_shared<Node>();
  v.node_->value = std::move(value);
  v.node_->id = g_next_id.fetch_add(1);
  v.node_->name = std::move(name);
  bool track = false;
  if (GradEnabled()) {
    for (const auto& p : parents) {
      MAMDR_CHECK(p.defined());
      if (NeedsGrad(p.node())) track = true;
    }
  }
  if (track) {
    v.node_->backward = std::move(backward);
    for (auto& p : parents) v.node_->parents.push_back(p.node());
  }
  return v;
}

void AccumGrad(const std::shared_ptr<Node>& node, const Tensor& g) {
  MAMDR_CHECK(node != nullptr);
  // Constants and detached nodes don't collect gradients.
  if (!NeedsGrad(node)) return;
  MAMDR_CHECK(g.shape() == node->value.shape())
      << "grad shape " << ShapeToString(g.shape()) << " vs value "
      << ShapeToString(node->value.shape());
  MAMDR_DCHECK_ALL_FINITE(g.data(), g.size());
  if (node->grad.empty()) node->grad = Tensor(node->value.shape());
  node->grad_zero = false;
  ops::AxpyInPlace(&node->grad, g, 1.0f);
}

float* GradBuffer(const std::shared_ptr<Node>& node, const Shape& shape) {
  MAMDR_CHECK(node != nullptr);
  if (!NeedsGrad(node)) return nullptr;
  MAMDR_CHECK(shape == node->value.shape())
      << "grad shape " << ShapeToString(shape) << " vs value "
      << ShapeToString(node->value.shape());
  if (node->grad.empty()) node->grad = Tensor(node->value.shape());
  node->grad_zero = false;
  MAMDR_DCHECK_ALL_FINITE(node->grad.data(), node->grad.size());
  return node->grad.data();
}

Tensor* FirstGradTarget(const std::shared_ptr<Node>& node, bool accumulates,
                        bool* later) {
  MAMDR_CHECK(node != nullptr);
  *later = false;
  if (!NeedsGrad(node)) return nullptr;
  if (!node->grad_zero) {
    *later = true;
    return nullptr;
  }
  if (node->grad.empty()) {
    const Shape& shape = node->value.shape();
    node->grad = accumulates ? Tensor(shape) : Tensor::Uninit(shape);
  }
  node->grad_zero = false;
  return &node->grad;
}

}  // namespace autograd
}  // namespace mamdr

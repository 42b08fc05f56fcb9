#include "autograd/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

// Gradients of a = x·W products go through WriteGrad: the MatMul*Add
// kernels accumulate onto a zero-filled target, so no chain ends at -0 and
// a first contributor's direct write has AccumGrad's bits.

Var MatMul(const Var& a, const Var& b) {
  Tensor out = ops::MatMul(a.value(), b.value());
  auto an = a.node(), bn = b.node();
  Tensor av = a.value(), bv = b.value();
  return MakeOpNode(
      std::move(out), {a, b},
      [an, bn, av, bv](const Tensor& g) {
        // dL/dA = g * B^T ; dL/dB = A^T * g.
        WriteGrad(an, /*accumulates=*/true,
                  [&](Tensor* t) { ops::MatMulTransBAdd(g, bv, t); });
        WriteGrad(bn, /*accumulates=*/true,
                  [&](Tensor* t) { ops::MatMulTransAAdd(av, g, t); });
      },
      "matmul");
}

Var Linear(const Var& x, const Var& w, const Var& b, bool relu) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  MAMDR_CHECK_EQ(xv.rank(), 2);
  MAMDR_CHECK_EQ(wv.rank(), 2);
  Tensor out({xv.rows(), wv.cols()});
  ops::MatMulAdd(xv, wv, &out);
  // The unfused chain's operations in its order, in place: each element is
  // (x·W)_ij + b_j, then max(., +0).
  const bool bias = b.defined();
  if (bias) {
    ops::AddRowVectorInPlace(&out, b.value(), relu);
  } else if (relu) {
    ops::simd::ReluForward(out.data(), out.data(), out.size());
  }
  std::vector<Var> parents = {x, w};
  if (bias) parents.push_back(b);
  auto xn = x.node(), wn = w.node();
  auto bn = bias ? b.node() : nullptr;
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), std::move(parents),
      [xn, wn, bn, xv, wv, ov, relu](const Tensor& g) {
        MAMDR_CHECK(g.shape() == ov.shape());
        // dL/dz for z = x·W + b. ReLU's mask reads the output: out > 0
        // exactly where z > 0 (NaN and -0 map to +0), and the zero-filled
        // gz gets +0 + (g or +0), the unfused node's gradient. Without
        // ReLU, gz is g itself: its consumers below start every chain from
        // +0, so a -0 in g gives the same bits as the unfused +0 + g.
        Tensor gz = g;
        if (relu) {
          gz = Tensor(g.shape());
          ops::simd::ReluBackward(ov.data(), g.data(), gz.data(), g.size());
        }
        // The unfused order: bias (AddRowVector), then x and W (MatMul).
        if (bn != nullptr) {
          WriteGrad(bn, /*accumulates=*/true,
                    [&](Tensor* t) { ops::SumRowsAdd(gz, t); });
        }
        WriteGrad(xn, /*accumulates=*/true,
                  [&](Tensor* t) { ops::MatMulTransBAdd(gz, wv, t); });
        WriteGrad(wn, /*accumulates=*/true,
                  [&](Tensor* t) { ops::MatMulTransAAdd(xv, gz, t); });
      },
      relu ? "linear_relu" : "linear");
}

}  // namespace autograd
}  // namespace mamdr

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var Add(const Var& a, const Var& b) {
  Tensor out = ops::Add(a.value(), b.value());
  auto an = a.node(), bn = b.node();
  return MakeOpNode(
      std::move(out), {a, b},
      [an, bn](const Tensor& g) {
        AccumGrad(an, g);
        AccumGrad(bn, g);
      },
      "add");
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = ops::Sub(a.value(), b.value());
  auto an = a.node(), bn = b.node();
  return MakeOpNode(
      std::move(out), {a, b},
      [an, bn](const Tensor& g) {
        AccumGrad(an, g);
        AccumGrad(bn, ops::MulScalar(g, -1.0f));
      },
      "sub");
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = ops::Mul(a.value(), b.value());
  auto an = a.node(), bn = b.node();
  Tensor av = a.value(), bv = b.value();
  return MakeOpNode(
      std::move(out), {a, b},
      [an, bn, av, bv](const Tensor& g) {
        AccumGrad(an, ops::Mul(g, bv));
        AccumGrad(bn, ops::Mul(g, av));
      },
      "mul");
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var AddScalar(const Var& a, float s) {
  Tensor out = ops::AddScalar(a.value(), s);
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a}, [an](const Tensor& g) { AccumGrad(an, g); },
      "add_scalar");
}

Var MulScalar(const Var& a, float s) {
  Tensor out = ops::MulScalar(a.value(), s);
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a},
      [an, s](const Tensor& g) { AccumGrad(an, ops::MulScalar(g, s)); },
      "mul_scalar");
}

Var Square(const Var& a) {
  Tensor out = ops::Mul(a.value(), a.value());
  auto an = a.node();
  Tensor av = a.value();
  return MakeOpNode(
      std::move(out), {a},
      [an, av](const Tensor& g) {
        AccumGrad(an, ops::Mul(g, ops::MulScalar(av, 2.0f)));
      },
      "square");
}

Var AddRowVector(const Var& a, const Var& row) {
  Tensor out = ops::AddRowVector(a.value(), row.value());
  auto an = a.node(), rn = row.node();
  return MakeOpNode(
      std::move(out), {a, row},
      [an, rn](const Tensor& g) {
        // 0.0f + g: AccumGrad's bits, -0 included (see WriteGrad).
        WriteGrad(an, /*accumulates=*/false, [&](Tensor* t) {
          const float* pg = g.data();
          float* pt = t->data();
          for (int64_t i = 0, n = t->size(); i < n; ++i) pt[i] = 0.0f + pg[i];
        });
        WriteGrad(rn, /*accumulates=*/true,
                  [&](Tensor* t) { ops::SumRowsAdd(g, t); });
      },
      "add_row_vector");
}

Var MulColVector(const Var& a, const Var& col) {
  Tensor out = ops::MulColVector(a.value(), col.value());
  auto an = a.node(), cn = col.node();
  Tensor av = a.value(), cv = col.value();
  Shape col_shape = col.value().shape();
  return MakeOpNode(
      std::move(out), {a, col},
      [an, cn, av, cv, col_shape](const Tensor& g) {
        AccumGrad(an, ops::MulColVector(g, cv));
        AccumGrad(cn, ops::SumCols(ops::Mul(g, av)).Reshaped(col_shape));
      },
      "mul_col_vector");
}

Var RowwiseDot(const Var& a, const Var& b) {
  MAMDR_CHECK(a.value().shape() == b.value().shape());
  MAMDR_CHECK_EQ(a.value().rank(), 2);
  const int64_t m = a.value().rows(), n = a.value().cols();
  Tensor out = Tensor::Uninit({m, 1});
  const float* pa = a.value().data();
  const float* pb = b.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += pa[i * n + j] * pb[i * n + j];
    po[i] = acc;
  }
  auto an = a.node(), bn = b.node();
  Tensor av = a.value(), bv = b.value();
  return MakeOpNode(
      std::move(out), {a, b},
      [an, bn, av, bv](const Tensor& g) {
        // g is [m,1]; d/da = g_i * b_ij, d/db = g_i * a_ij.
        AccumGrad(an, ops::MulColVector(bv, g));
        AccumGrad(bn, ops::MulColVector(av, g));
      },
      "rowwise_dot");
}

}  // namespace autograd
}  // namespace mamdr

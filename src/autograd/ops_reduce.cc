#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var Sum(const Var& a) {
  Tensor out({1}, ops::Sum(a.value()));
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape](const Tensor& g) {
        MAMDR_CHECK_EQ(g.size(), 1);
        AccumGrad(an, Tensor(in_shape, g.data()[0]));
      },
      "sum");
}

Var Mean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  Tensor out({1}, ops::Sum(a.value()) * inv);
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape, inv](const Tensor& g) {
        MAMDR_CHECK_EQ(g.size(), 1);
        AccumGrad(an, Tensor(in_shape, g.data()[0] * inv));
      },
      "mean");
}

Var SumCols(const Var& a) {
  Tensor out = ops::SumCols(a.value());
  auto an = a.node();
  const int64_t m = a.value().rows(), n = a.value().cols();
  return MakeOpNode(
      std::move(out), {a},
      [an, m, n](const Tensor& g) {
        // g is [m,1]; broadcast back to [m,n].
        MAMDR_CHECK(g.shape() == Shape({m, 1}));
        Tensor gi({m, n});
        const float* pg = g.data();
        float* pgi = gi.data();
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) pgi[i * n + j] = pg[i];
        }
        AccumGrad(an, gi);
      },
      "sum_cols");
}

Var SumRows(const Var& a) {
  Tensor out = ops::SumRows(a.value());
  auto an = a.node();
  const int64_t m = a.value().rows(), n = a.value().cols();
  return MakeOpNode(
      std::move(out), {a},
      [an, m, n](const Tensor& g) {
        // g is [1,n]; broadcast back to [m,n].
        MAMDR_CHECK(g.shape() == Shape({1, n}));
        Tensor gi({m, n});
        const float* pg = g.data();
        float* pgi = gi.data();
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) pgi[i * n + j] = pg[j];
        }
        AccumGrad(an, gi);
      },
      "sum_rows");
}

}  // namespace autograd
}  // namespace mamdr

#include <cmath>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var BceWithLogitsMean(const Var& logits, const Tensor& labels) {
  MAMDR_CHECK(logits.value().shape() == labels.shape());
  const int64_t n = logits.value().size();
  MAMDR_CHECK_GT(n, 0);
  // loss_i = max(x,0) - x*y + log(1 + exp(-|x|))  (numerically stable form)
  double acc = 0.0;
  const float* pl = logits.value().data();
  const float* py = labels.data();
  for (int64_t i = 0; i < n; ++i) {
    const float x = pl[i];
    const float y = py[i];
    acc += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::fabs(x)));
  }
  Tensor out({1}, static_cast<float>(acc / static_cast<double>(n)));
  auto ln = logits.node();
  Tensor lv = logits.value();
  Tensor yv = labels;
  return MakeOpNode(
      std::move(out), {logits},
      [ln, lv, yv, n](const Tensor& g) {
        // d/dx_i = (sigmoid(x_i) - y_i) / n.
        MAMDR_CHECK_EQ(g.size(), 1);
        const float scale = g.data()[0] / static_cast<float>(n);
        // scale * (s - y) is -0 when s == y and scale < 0 (or scale is -0
        // and s < y); 0.0f + v stores AccumGrad's +0 there (see WriteGrad).
        WriteGrad(ln, /*accumulates=*/false, [&](Tensor* t) {
          MAMDR_CHECK_EQ(t->size(), n);
          const float* pv = lv.data();
          const float* pyv = yv.data();
          float* pgi = t->data();
          for (int64_t i = 0; i < n; ++i) {
            const float x = pv[i];
            const float s = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                                      : std::exp(x) / (1.0f + std::exp(x));
            pgi[i] = 0.0f + scale * (s - pyv[i]);
          }
        });
      },
      "bce_with_logits_mean");
}

}  // namespace autograd
}  // namespace mamdr

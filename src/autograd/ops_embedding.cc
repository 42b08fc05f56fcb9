#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var EmbeddingLookup(const Var& table, const std::vector<int64_t>& ids) {
  MAMDR_CHECK_EQ(table.value().rank(), 2);
  const int64_t v = table.value().rows(), d = table.value().cols();
  const int64_t b = static_cast<int64_t>(ids.size());
  Tensor out({b, d});
  for (int64_t i = 0; i < b; ++i) {
    MAMDR_CHECK_GE(ids[static_cast<size_t>(i)], 0);
    MAMDR_CHECK_LT(ids[static_cast<size_t>(i)], v);
    const float* src = table.value().data() + ids[static_cast<size_t>(i)] * d;
    float* dst = out.data() + i * d;
    for (int64_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  auto tn = table.node();
  std::vector<int64_t> ids_copy = ids;
  return MakeOpNode(
      std::move(out), {table},
      [tn, ids_copy, v, b, d](const Tensor& g) {
        // Scatter-add rows of g into the table gradient. Forward checked
        // every id against v rows.
        MAMDR_CHECK(g.shape() == Shape({b, d}));
        float* tg = GradBuffer(tn, {v, d});
        if (tg == nullptr) return;
        const float* pg = g.data();
        for (size_t i = 0; i < ids_copy.size(); ++i) {
          float* dst = tg + ids_copy[i] * d;
          const float* src = pg + static_cast<int64_t>(i) * d;
          for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
        }
      },
      "embedding_lookup");
}

Var Dropout(const Var& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  MAMDR_CHECK_LT(p, 1.0f);
  MAMDR_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask(a.value().shape());
  float* pm = mask.data();
  for (int64_t i = 0, n = mask.size(); i < n; ++i) {
    pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = ops::Mul(a.value(), mask);
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a},
      [an, mask](const Tensor& g) { AccumGrad(an, ops::Mul(g, mask)); },
      "dropout");
}

}  // namespace autograd
}  // namespace mamdr

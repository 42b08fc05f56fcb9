#include <algorithm>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var EmbeddingLookup(const Var& table, const std::vector<int64_t>& ids) {
  return EmbeddingConcat({table}, {ids});
}

Var EmbeddingConcat(const std::vector<Var>& tables,
                    std::vector<std::vector<int64_t>> ids) {
  MAMDR_CHECK(!tables.empty());
  MAMDR_CHECK_EQ(tables.size(), ids.size());
  const int64_t b = static_cast<int64_t>(ids[0].size());
  std::vector<int64_t> widths;
  widths.reserve(tables.size());
  int64_t total = 0;
  for (size_t k = 0; k < tables.size(); ++k) {
    MAMDR_CHECK_EQ(tables[k].value().rank(), 2);
    MAMDR_CHECK_EQ(static_cast<int64_t>(ids[k].size()), b);
    const int64_t v = tables[k].value().rows();
    for (int64_t id : ids[k]) {
      MAMDR_CHECK_GE(id, 0);
      MAMDR_CHECK_LT(id, v);
    }
    widths.push_back(tables[k].value().cols());
    total += widths.back();
  }
  Tensor out = Tensor::Uninit({b, total});
  float* po = out.data();
  for (int64_t i = 0; i < b; ++i) {
    float* dst = po + i * total;
    for (size_t k = 0; k < tables.size(); ++k) {
      const int64_t d = widths[k];
      const float* src =
          tables[k].value().data() + ids[k][static_cast<size_t>(i)] * d;
      std::copy(src, src + d, dst);
      dst += d;
    }
  }
  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(tables.size());
  for (const Var& t : tables) nodes.push_back(t.node());
  return MakeOpNode(
      std::move(out), tables,
      [nodes, ids = std::move(ids), widths, b, total](const Tensor& g) {
        // Forward checked every id against its table's rows.
        MAMDR_CHECK(g.shape() == Shape({b, total}));
        const float* pg = g.data();
        int64_t col0 = 0;
        for (size_t k = 0; k < nodes.size(); ++k) {
          const int64_t d = widths[k];
          float* tg = GradBuffer(nodes[k], nodes[k]->value.shape());
          if (tg != nullptr) {
            for (int64_t i = 0; i < b; ++i) {
              float* dst = tg + ids[k][static_cast<size_t>(i)] * d;
              const float* src = pg + i * total + col0;
              for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
            }
          }
          col0 += d;
        }
      },
      "embedding_concat");
}

Var Dropout(const Var& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  MAMDR_CHECK_LT(p, 1.0f);
  MAMDR_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask = Tensor::Uninit(a.value().shape());
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

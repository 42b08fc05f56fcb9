#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var ConcatCols(const std::vector<Var>& parts) {
  MAMDR_CHECK(!parts.empty());
  const int64_t m = parts[0].value().rows();
  int64_t total = 0;
  for (const auto& p : parts) {
    MAMDR_CHECK_EQ(p.value().rank(), 2);
    MAMDR_CHECK_EQ(p.value().rows(), m);
    total += p.value().cols();
  }
  Tensor out = Tensor::Uninit({m, total});
  int64_t off = 0;
  std::vector<int64_t> widths;
  widths.reserve(parts.size());
  for (const auto& p : parts) {
    const int64_t n = p.value().cols();
    widths.push_back(n);
    const float* pp = p.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) po[i * total + off + j] = pp[i * n + j];
    }
    off += n;
  }
  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(parts.size());
  for (const auto& p : parts) nodes.push_back(p.node());
  return MakeOpNode(
      std::move(out), parts,
      [nodes, widths, m, total](const Tensor& g) {
        MAMDR_CHECK(g.shape() == Shape({m, total}));
        const float* pg = g.data();
        int64_t col0 = 0;
        for (size_t k = 0; k < nodes.size(); ++k) {
          const int64_t w = widths[k];
          float* gi = GradBuffer(nodes[k], {m, w});
          if (gi != nullptr) {
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = 0; j < w; ++j) {
                gi[i * w + j] += pg[i * total + col0 + j];
              }
            }
          }
          col0 += w;
        }
      },
      "concat_cols");
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  MAMDR_CHECK_EQ(a.value().rank(), 2);
  const int64_t m = a.value().rows(), n = a.value().cols();
  MAMDR_CHECK_GE(start, 0);
  MAMDR_CHECK_LE(start + len, n);
  Tensor out = Tensor::Uninit({m, len});
  const float* pa = a.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < len; ++j) po[i * len + j] = pa[i * n + start + j];
  }
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a},
      [an, m, n, start, len](const Tensor& g) {
        MAMDR_CHECK(g.shape() == Shape({m, len}));
        // Columns outside the slice are not touched. Adding +0.0f to them
        // would change nothing: a buffer accumulated from zero never holds
        // -0.0f.
        float* gi = GradBuffer(an, {m, n});
        if (gi == nullptr) return;
        const float* pg = g.data();
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < len; ++j) {
            gi[i * n + start + j] += pg[i * len + j];
          }
        }
      },
      "slice_cols");
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Clone().Reshaped(shape);
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape](const Tensor& g) {
        AccumGrad(an, g.Clone().Reshaped(in_shape));
      },
      "reshape");
}

}  // namespace autograd
}  // namespace mamdr

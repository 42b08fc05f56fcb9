#include <cmath>

#include "autograd/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

// Elementwise ops allocate their output with the input's shape, so one
// shape check per backward call (g against the captured value) bounds every
// raw-pointer index below.

Var Relu(const Var& a) {
  Tensor out = Tensor::Uninit(a.value().shape());
  ops::simd::ReluForward(a.value().data(), out.data(), out.size());
  auto an = a.node();
  Tensor av = a.value();
  return MakeOpNode(
      std::move(out), {a},
      [an, av](const Tensor& g) {
        MAMDR_CHECK(g.shape() == av.shape());
        float* gi = GradBuffer(an, av.shape());
        if (gi == nullptr) return;
        ops::simd::ReluBackward(av.data(), g.data(), gi, g.size());
      },
      "relu");
}

Var Sigmoid(const Var& a) {
  Tensor out = SigmoidValue(a.value());
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) {
        MAMDR_CHECK(g.shape() == ov.shape());
        Tensor gi(g.shape());
        const float* pv = ov.data();
        const float* pg = g.data();
        float* pgi = gi.data();
        for (int64_t i = 0, n = g.size(); i < n; ++i) {
          const float s = pv[i];
          pgi[i] = pg[i] * s * (1.0f - s);
        }
        AccumGrad(an, gi);
      },
      "sigmoid");
}

Var Tanh(const Var& a) {
  Tensor out = Tensor::Uninit(a.value().shape());
  const float* pa = a.value().data();
  float* po = out.data();
  for (int64_t i = 0, n = out.size(); i < n; ++i) po[i] = std::tanh(pa[i]);
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) {
        MAMDR_CHECK(g.shape() == ov.shape());
        Tensor gi(g.shape());
        const float* pv = ov.data();
        const float* pg = g.data();
        float* pgi = gi.data();
        for (int64_t i = 0, n = g.size(); i < n; ++i) {
          pgi[i] = pg[i] * (1.0f - pv[i] * pv[i]);
        }
        AccumGrad(an, gi);
      },
      "tanh");
}

Var Exp(const Var& a) {
  Tensor out = Tensor::Uninit(a.value().shape());
  const float* pa = a.value().data();
  float* po = out.data();
  for (int64_t i = 0, n = out.size(); i < n; ++i) po[i] = std::exp(pa[i]);
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) { AccumGrad(an, ops::Mul(g, ov)); }, "exp");
}

Var Log(const Var& a, float eps) {
  Tensor out = Tensor::Uninit(a.value().shape());
  Tensor clamped = Tensor::Uninit(a.value().shape());
  const float* pa = a.value().data();
  float* pc = clamped.data();
  float* po = out.data();
  for (int64_t i = 0, n = out.size(); i < n; ++i) {
    const float v = std::max(pa[i], eps);
    pc[i] = v;
    po[i] = std::log(v);
  }
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a},
      [an, clamped](const Tensor& g) {
        MAMDR_CHECK(g.shape() == clamped.shape());
        Tensor gi(g.shape());
        const float* pv = clamped.data();
        const float* pg = g.data();
        float* pgi = gi.data();
        for (int64_t i = 0, n = g.size(); i < n; ++i) pgi[i] = pg[i] / pv[i];
        AccumGrad(an, gi);
      },
      "log");
}

Var SoftmaxRows(const Var& a) {
  MAMDR_CHECK_EQ(a.value().rank(), 2);
  const int64_t m = a.value().rows(), n = a.value().cols();
  MAMDR_CHECK_GT(n, 0) << "softmax over empty rows";
  Tensor out = Tensor::Uninit({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* pa = a.value().data() + i * n;
    float* po = out.data() + i * n;
    float mx = pa[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, pa[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      const float e = std::exp(pa[j] - mx);
      po[j] = e;
      denom += e;
    }
    for (int64_t j = 0; j < n; ++j) po[j] /= denom;
  }
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov, m, n](const Tensor& g) {
        // dL/dx_ij = s_ij * (g_ij - sum_k g_ik s_ik).
        MAMDR_CHECK(g.shape() == ov.shape());
        Tensor gi({m, n});
        for (int64_t i = 0; i < m; ++i) {
          const float* pg = g.data() + i * n;
          const float* pv = ov.data() + i * n;
          float* pgi = gi.data() + i * n;
          float dot = 0.0f;
          for (int64_t k = 0; k < n; ++k) dot += pg[k] * pv[k];
          for (int64_t j = 0; j < n; ++j) pgi[j] = pv[j] * (pg[j] - dot);
        }
        AccumGrad(an, gi);
      },
      "softmax_rows");
}

Tensor SigmoidValue(const Tensor& logits) {
  Tensor out = Tensor::Uninit(logits.shape());
  const float* pl = logits.data();
  float* po = out.data();
  for (int64_t i = 0, n = out.size(); i < n; ++i) {
    const float x = pl[i];
    po[i] = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                      : std::exp(x) / (1.0f + std::exp(x));
  }
  return out;
}

}  // namespace autograd
}  // namespace mamdr

#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"

namespace mamdr {
namespace ops {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK(a.shape() == b.shape())
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
}

// Register-tiled core shared by MatMul and MatMulTransA: accumulates
// C[r0:r1, :] += A' * B where element (i, kk) of A' sits at
// pa[i * sa_i + kk * sa_k] (sa_i=k, sa_k=1 for MatMul; sa_i=1, sa_k=m for
// the transposed-A product). Every C element receives its k-terms in the
// same ascending order the serial seed kernel used — blocking changes
// memory traffic, not float rounding — so the runtime-dispatched AVX2 body
// in tensor/simd.cc is bit-identical to the scalar one (see simd.h).
void MatMulCore(const float* pa, int64_t sa_i, int64_t sa_k, const float* pb,
                float* pc, int64_t k, int64_t n, int64_t r0, int64_t r1) {
  simd::MatMulPanel(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
}

// Small-shape path for C += A * B^T where B is [n, k]: each output is a dot
// product. Four output columns share one pass over A's row; each
// accumulator starts from its C element and runs over kk sequentially,
// matching the serial kernel's rounding exactly. (Large shapes transpose B
// once and use MatMulCore — dot products over rows of B cannot be
// vectorized without reassociating the sum, a transposed copy can.)
void MatMulTransBRange(const float* pa, const float* pb, float* pc, int64_t k,
                       int64_t n, int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = pb + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float acc0 = crow[j], acc1 = crow[j + 1], acc2 = crow[j + 2],
            acc3 = crow[j + 3];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = crow[j];
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

void CheckProductShape(const Tensor& c, int64_t m, int64_t n) {
  MAMDR_CHECK(c.shape() == Shape({m, n}))
      << "product is [" << m << ", " << n << "], output "
      << ShapeToString(c.shape());
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  Tensor c({a.rows(), b.cols()});
  MatMulAdd(a, b, &c);
  return c;
}

void MatMulAdd(const Tensor& a, const Tensor& b, Tensor* c) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  MAMDR_CHECK_EQ(k, b.rows());
  CheckProductShape(*c, m, n);
  if (m == 0 || k == 0 || n == 0) return;
  MatMulCore(a.data(), /*sa_i=*/k, /*sa_k=*/1, b.data(), c->data(), k, n, 0,
             m);
}

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  MAMDR_CHECK_EQ(k, b.rows());
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order: streams through B and C rows, cache friendly.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  Tensor c({a.cols(), b.cols()});
  MatMulTransAAdd(a, b, &c);
  return c;
}

void MatMulTransAAdd(const Tensor& a, const Tensor& b, Tensor* c) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  MAMDR_CHECK_EQ(k, b.rows());
  CheckProductShape(*c, m, n);
  if (m == 0 || k == 0 || n == 0) return;
  MatMulCore(a.data(), /*sa_i=*/1, /*sa_k=*/m, b.data(), c->data(), k, n, 0,
             m);
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  Tensor c({a.rows(), b.rows()});
  MatMulTransBAdd(a, b, &c);
  return c;
}

void MatMulTransBAdd(const Tensor& a, const Tensor& b, Tensor* c) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  MAMDR_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  MAMDR_CHECK_EQ(k, b.cols());
  CheckProductShape(*c, m, n);
  if (m == 0 || k == 0 || n == 0) return;
  // For all but tiny outputs, transposing B once (O(nk)) is far cheaper
  // than the un-vectorizable row-by-row dot products (O(2mnk)), and the
  // per-element accumulation order is identical either way.
  if (m >= 8) {
    const Tensor bt = Transpose(b);  // [k, n]
    MatMulCore(a.data(), /*sa_i=*/k, /*sa_k=*/1, bt.data(), c->data(), k, n,
               0, m);
    return;
  }
  MatMulTransBRange(a.data(), b.data(), c->data(), k, n, 0, m);
}

Tensor Transpose(const Tensor& a) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor t = Tensor::Uninit({n, m});
  const float* pa = a.data();
  float* pt = t.data();
  // 32x32 tiles: both the source rows and the destination rows of a tile
  // stay in L1 while it is flipped.
  constexpr int64_t kTile = 32;
  for (int64_t ib = 0; ib < m; ib += kTile) {
    const int64_t imax = std::min(ib + kTile, m);
    for (int64_t jb = 0; jb < n; jb += kTile) {
      const int64_t jmax = std::min(jb + kTile, n);
      for (int64_t i = ib; i < imax; ++i) {
        for (int64_t j = jb; j < jmax; ++j) pt[j * m + i] = pa[i * n + j];
      }
    }
  }
  return t;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = Tensor::Uninit(a.shape());
  AddInto(a, b, &out);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = Tensor::Uninit(a.shape());
  SubInto(a, b, &out);
  return out;
}

void AddInto(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] + pb[i];
}

void SubInto(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] - pb[i];
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor Axpy(const Tensor& a, const Tensor& b, float alpha) {
  CheckSameShape(a, b);
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] + alpha * pb[i];
  return out;
}

void AxpyInPlace(Tensor* y, const Tensor& x, float alpha) {
  CheckSameShape(*y, x);
  AxpyInPlace(y->data(), x.data(), y->size(), alpha);
}

void AxpyInPlace(float* y, const float* x, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleInPlace(Tensor* y, float alpha) {
  float* py = y->data();
  for (int64_t i = 0, n = y->size(); i < n; ++i) py[i] *= alpha;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] + s;
  return out;
}

Tensor MulScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) po[i] = pa[i] * s;
  return out;
}

Tensor AddRowVector(const Tensor& a, const Tensor& row) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  MAMDR_CHECK_EQ(row.size(), n);
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pr = row.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* orow = po + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = arow[j] + pr[j];
  }
  return out;
}

void AddRowVectorInPlace(Tensor* a, const Tensor& row, bool relu) {
  MAMDR_CHECK_EQ(a->rank(), 2);
  const int64_t m = a->rows(), n = a->cols();
  MAMDR_CHECK_EQ(row.size(), n);
  const float* pr = row.data();
  float* pa = a->data();
  for (int64_t i = 0; i < m; ++i) {
    float* arow = pa + i * n;
    for (int64_t j = 0; j < n; ++j) arow[j] = arow[j] + pr[j];
    if (relu) simd::ReluForward(arow, arow, n);
  }
}

Tensor MulColVector(const Tensor& a, const Tensor& col) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  MAMDR_CHECK_EQ(col.size(), m);
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pc = col.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* orow = po + i * n;
    const float cv = pc[i];
    for (int64_t j = 0; j < n; ++j) orow[j] = arow[j] * cv;
  }
  return out;
}

// Reductions: the summation order is part of the numerical contract
// (bit-identical results at any thread count). Raw-pointer loops let the
// compiler vectorize the independent per-column accumulations.
Tensor SumRows(const Tensor& a) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  Tensor out({1, a.cols()});
  SumRowsAdd(a, &out);
  return out;
}

void SumRowsAdd(const Tensor& a, Tensor* out) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  MAMDR_CHECK_EQ(out->size(), n);
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    for (int64_t j = 0; j < n; ++j) po[j] += arow[j];
  }
}

Tensor SumCols(const Tensor& a) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out({m, 1});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += arow[j];
    po[i] = acc;
  }
  return out;
}

float Sum(const Tensor& a) {
  const float* pa = a.data();
  const int64_t n = a.size();
  // Full-tensor scalar reductions accumulate in 64-bit on purpose: they are
  // serial (summation order is part of the numerical contract) and feed loss
  // / norm values where float32 cancellation is observable.
  double acc = 0.0;  // mamdr-lint: allow(kernel-double)
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  return static_cast<float>(acc);
}

float Dot(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;  // mamdr-lint: allow(kernel-double)
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(pa[i]) * static_cast<double>(pb[i]);
  }
  return static_cast<float>(acc);
}

float SquaredNorm(const Tensor& a) { return Dot(a, a); }

float MaxAbs(const Tensor& a) {
  const float* pa = a.data();
  const int64_t n = a.size();
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(pa[i]));
  return m;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol) return false;
  }
  return true;
}

}  // namespace ops
}  // namespace mamdr

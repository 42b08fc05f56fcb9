// Raw numeric kernels on Tensor (no autograd). The autograd layer builds its
// forward/backward passes out of these.
#ifndef MAMDR_TENSOR_TENSOR_OPS_H_
#define MAMDR_TENSOR_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace mamdr {
namespace ops {

/// C = A * B for 2-D matrices ([m,k] x [k,n] -> [m,n]). Cache-blocked and
/// serial (parallelism lives in independent units such as evaluation
/// domains, never inside a kernel); every output accumulates its k-terms
/// in the same ascending order as MatMulNaive.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// The original single-threaded unblocked MatMul (the growth seed's
/// kernel). Kept as the baseline for bench_kernels and equivalence tests.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);

/// C = A^T * B ([k,m]^T x [k,n] -> [m,n]) without materializing A^T.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A * B^T ([m,k] x [n,k]^T -> [m,n]) without materializing B^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// *c += A * B, A^T * B and A * B^T, for an existing c of the product's
/// shape: each element of c starts its ascending-k chain from its current
/// value, so a zero-filled c receives exactly the bits MatMul,
/// MatMulTransA and MatMulTransB return. A chain that starts from +0 never
/// ends at -0 (x + -0 is x, and exact cancellation rounds to +0).
void MatMulAdd(const Tensor& a, const Tensor& b, Tensor* c);
void MatMulTransAAdd(const Tensor& a, const Tensor& b, Tensor* c);
void MatMulTransBAdd(const Tensor& a, const Tensor& b, Tensor* c);

/// Transpose of a 2-D matrix.
Tensor Transpose(const Tensor& a);

/// Elementwise binary ops; shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);

/// *out = a + b and *out = a - b into an existing tensor of the same shape,
/// without allocating; out may alias a or b. One IEEE add or subtract per
/// element, so the vectorized loop gives the scalar loop's bits.
void AddInto(const Tensor& a, const Tensor& b, Tensor* out);
void SubInto(const Tensor& a, const Tensor& b, Tensor* out);
Tensor Mul(const Tensor& a, const Tensor& b);

/// out = a + alpha * b (shapes must match).
Tensor Axpy(const Tensor& a, const Tensor& b, float alpha);

/// In-place y += alpha * x.
void AxpyInPlace(Tensor* y, const Tensor& x, float alpha);
/// The same over n raw floats (the parameter server's Eq. 3 apply).
void AxpyInPlace(float* y, const float* x, int64_t n, float alpha);

/// In-place y *= alpha.
void ScaleInPlace(Tensor* y, float alpha);

/// Elementwise scalar ops.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

/// Add a [1,n] (or [n]) row vector to every row of an [m,n] matrix.
Tensor AddRowVector(const Tensor& a, const Tensor& row);

/// In place, row by row: a_ij = a_ij + row_j, then max(a_ij, +0) when
/// `relu` (NaN and -0 map to +0): AddRowVector and ReLU's bits without
/// their two output tensors.
void AddRowVectorInPlace(Tensor* a, const Tensor& row, bool relu);

/// Multiply every row of [m,n] elementwise by an [m,1] (or [m]) column.
Tensor MulColVector(const Tensor& a, const Tensor& col);

/// Sum over rows of [m,n] -> [1,n] (used for bias gradients).
Tensor SumRows(const Tensor& a);

/// *out += SumRows(a), for an existing out of n elements, row by row in
/// ascending order (the bits of SumRows when out is zero-filled).
void SumRowsAdd(const Tensor& a, Tensor* out);

/// Sum over cols of [m,n] -> [m,1].
Tensor SumCols(const Tensor& a);

/// Full reductions.
float Sum(const Tensor& a);
float Dot(const Tensor& a, const Tensor& b);
float SquaredNorm(const Tensor& a);
float MaxAbs(const Tensor& a);

/// True if every |a_i - b_i| <= atol.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace ops
}  // namespace mamdr

#endif  // MAMDR_TENSOR_TENSOR_OPS_H_

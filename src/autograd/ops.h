// Differentiable ops on Var. Each op computes a forward value with the raw
// kernels in tensor_ops.h and records a backward closure.
#ifndef MAMDR_AUTOGRAD_OPS_H_
#define MAMDR_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace mamdr {
namespace autograd {

// ---- Elementwise binary (shapes must match) --------------------------------
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);

// ---- Elementwise unary ------------------------------------------------------
Var Neg(const Var& a);
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);
Var Square(const Var& a);

// ---- Linear algebra ---------------------------------------------------------
/// [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);

/// Add a [1,n] row vector (bias) to each row of [m,n].
Var AddRowVector(const Var& a, const Var& row);

/// Scale each row i of [m,n] by col[i] ([m,1]).
Var MulColVector(const Var& a, const Var& col);

/// Row-wise dot product of two [m,n] matrices -> [m,1].
Var RowwiseDot(const Var& a, const Var& b);

// ---- Activations ------------------------------------------------------------
Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
/// log(max(a, eps)) to avoid -inf.
Var Log(const Var& a, float eps = 1e-12f);
/// Row-wise softmax of [m,n].
Var SoftmaxRows(const Var& a);

// ---- Reductions ---------------------------------------------------------
/// Sum of all elements -> [1].
Var Sum(const Var& a);
/// Mean of all elements -> [1].
Var Mean(const Var& a);
/// [m,n] -> [m,1].
Var SumCols(const Var& a);
/// [m,n] -> [1,n].
Var SumRows(const Var& a);

// ---- Shape ------------------------------------------------------------------
/// Horizontally concatenate [m,n_i] matrices -> [m, sum n_i].
Var ConcatCols(const std::vector<Var>& parts);
/// Columns [start, start+len) of [m,n] -> [m,len].
Var SliceCols(const Var& a, int64_t start, int64_t len);
/// Same data, new shape (element count preserved).
Var Reshape(const Var& a, Shape shape);

// ---- Embedding ----------------------------------------------------------
/// Gather rows of `table` ([V,d]) by ids -> [B,d]. Backward scatter-adds.
/// The one-table case of EmbeddingConcat.
Var EmbeddingLookup(const Var& table, const std::vector<int64_t>& ids);
/// ConcatCols of EmbeddingLookup(tables[k], ids[k]) over k, as one node: rows
/// are gathered straight into the [B, sum d_k] output, and backward
/// scatter-adds the output gradient's column blocks straight into each
/// table's gradient, in the same order, so the bits match the unfused form.
/// Every id is checked against its table's rows.
Var EmbeddingConcat(const std::vector<Var>& tables,
                    std::vector<std::vector<int64_t>> ids);

// ---- Regularization -----------------------------------------------------
/// Inverted dropout. Identity when !training or p == 0.
Var Dropout(const Var& a, float p, Rng* rng, bool training);

// ---- Losses -------------------------------------------------------------
/// Numerically stable mean binary cross entropy with logits.
/// logits and labels must have the same shape; labels in {0,1}.
Var BceWithLogitsMean(const Var& logits, const Tensor& labels);

/// Elementwise sigmoid of logits as plain Tensor (prediction helper).
Tensor SigmoidValue(const Tensor& logits);

}  // namespace autograd
}  // namespace mamdr

#endif  // MAMDR_AUTOGRAD_OPS_H_

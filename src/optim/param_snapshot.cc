#include "optim/param_snapshot.h"

#include "tensor/tensor_ops.h"

namespace mamdr {
namespace optim {

std::vector<Tensor> Snapshot(const std::vector<Var>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p.value().Clone());
  return out;
}

void SnapshotInto(const std::vector<Var>& params, std::vector<Tensor>* snap) {
  bool reusable = snap->size() == params.size();
  for (size_t i = 0; reusable && i < params.size(); ++i) {
    const Tensor& v = params[i].value();
    reusable = (*snap)[i].shape() == v.shape() && (*snap)[i].size() == v.size();
  }
  if (!reusable) {
    *snap = Snapshot(params);
    return;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& v = params[i].value();
    std::copy(v.data(), v.data() + v.size(), (*snap)[i].data());
  }
}

void Restore(const std::vector<Var>& params,
             const std::vector<Tensor>& snap) {
  MAMDR_CHECK_EQ(params.size(), snap.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Var p = params[i];
    Tensor& v = p.mutable_value();
    MAMDR_CHECK(v.shape() == snap[i].shape());
    std::copy(snap[i].data(), snap[i].data() + snap[i].size(), v.data());
  }
}

void MetaInterpolate(const std::vector<Var>& params,
                     const std::vector<Tensor>& snap, float beta) {
  MAMDR_CHECK_EQ(params.size(), snap.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Var p = params[i];
    Tensor& v = p.mutable_value();
    const Tensor& s = snap[i];
    MAMDR_CHECK(v.shape() == s.shape());
    float* pv = v.data();
    const float* ps = s.data();
    const int64_t n = v.size();
    for (int64_t j = 0; j < n; ++j) pv[j] = ps[j] + beta * (pv[j] - ps[j]);
  }
}

std::vector<Tensor> GradSnapshot(const std::vector<Var>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) {
    out.push_back(p.has_grad() ? p.grad().Clone()
                               : Tensor(p.value().shape()));
  }
  return out;
}

void SetGrads(const std::vector<Var>& params,
              const std::vector<Tensor>& grads) {
  MAMDR_CHECK_EQ(params.size(), grads.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Var p = params[i];
    p.ZeroGrad();
    MAMDR_CHECK(p.grad().shape() == grads[i].shape());
    std::copy(grads[i].data(), grads[i].data() + grads[i].size(),
              p.mutable_grad().data());
  }
}

Tensor Flatten(const std::vector<Tensor>& tensors) {
  int64_t total = 0;
  for (const auto& t : tensors) total += t.size();
  Tensor out({total});
  int64_t off = 0;
  for (const auto& t : tensors) {
    std::copy(t.data(), t.data() + t.size(), out.data() + off);
    off += t.size();
  }
  return out;
}

std::vector<Tensor> Unflatten(const Tensor& flat,
                              const std::vector<Tensor>& layout) {
  std::vector<Tensor> out;
  out.reserve(layout.size());
  int64_t off = 0;
  for (const auto& ref : layout) {
    Tensor t(ref.shape());
    std::copy(flat.data() + off, flat.data() + off + t.size(), t.data());
    off += t.size();
    out.push_back(std::move(t));
  }
  MAMDR_CHECK_EQ(off, flat.size());
  return out;
}

}  // namespace optim
}  // namespace mamdr

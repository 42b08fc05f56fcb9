#include "core/param_store.h"

#include "common/logging.h"
#include "optim/param_snapshot.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace core {

SharedSpecificStore::SharedSpecificStore(std::vector<autograd::Var> params,
                                         int64_t num_domains)
    : params_(std::move(params)) {
  MAMDR_CHECK(!params_.empty());
  MAMDR_CHECK_GT(num_domains, 0);
  shared_ = optim::Snapshot(params_);
  specific_.resize(static_cast<size_t>(num_domains));
  for (auto& s : specific_) {
    s.reserve(params_.size());
    for (const auto& p : params_) s.emplace_back(p.value().shape());
  }
}

void SharedSpecificStore::InstallShared() {
  optim::Restore(params_, shared_);
}

void SharedSpecificStore::InstallComposite(int64_t domain) {
  InstallComposite(domain, params_);
}

void SharedSpecificStore::InstallComposite(
    int64_t domain, const std::vector<autograd::Var>& dst) const {
  const std::vector<Tensor>& spec = specific(domain);
  MAMDR_CHECK_EQ(dst.size(), shared_.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    autograd::Var p = dst[i];
    ops::AddInto(shared_[i], spec[i], &p.mutable_value());
  }
}

void SharedSpecificStore::UpdateSharedFromParams() {
  shared_ = optim::Snapshot(params_);
}

void SharedSpecificStore::UpdateSpecificFromComposite(int64_t domain) {
  MAMDR_CHECK_GE(domain, 0);
  MAMDR_CHECK_LT(domain, num_domains());
  auto& spec = specific_[static_cast<size_t>(domain)];
  for (size_t i = 0; i < params_.size(); ++i) {
    ops::SubInto(params_[i].value(), shared_[i], &spec[i]);
  }
}

int64_t SharedSpecificStore::AddDomain() {
  std::vector<Tensor> zeros;
  zeros.reserve(params_.size());
  for (const auto& p : params_) zeros.emplace_back(p.value().shape());
  specific_.push_back(std::move(zeros));
  return num_domains() - 1;
}

const std::vector<Tensor>& SharedSpecificStore::specific(
    int64_t domain) const {
  MAMDR_CHECK_GE(domain, 0);
  MAMDR_CHECK_LT(domain, num_domains());
  return specific_[static_cast<size_t>(domain)];
}

std::vector<Tensor>* SharedSpecificStore::mutable_specific(int64_t domain) {
  MAMDR_CHECK_GE(domain, 0);
  MAMDR_CHECK_LT(domain, num_domains());
  return &specific_[static_cast<size_t>(domain)];
}

}  // namespace core
}  // namespace mamdr

#include "nn/module.h"

namespace mamdr {
namespace nn {

std::vector<Var> Module::Parameters() const {
  std::vector<Var> out;
  for (const auto& [name, p] : NamedParameters()) {
    (void)name;
    out.push_back(p);
  }
  return out;
}

std::vector<std::pair<std::string, Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Var>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [cname, child] : children_) {
    for (const auto& [pname, p] : child->NamedParameters()) {
      out.emplace_back(cname + "." + pname, p);
    }
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& p : Parameters()) n += p.value().size();
  return n;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

void Module::CopyBuffersFrom(const Module& src) {
  MAMDR_CHECK_EQ(children_.size(), src.children_.size());
  CopyOwnBuffersFrom(src);
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i].second->CopyBuffersFrom(*src.children_[i].second);
  }
}

Var Module::RegisterParameter(const std::string& name, Tensor value) {
  Var v(std::move(value), /*requires_grad=*/true, name);
  params_.emplace_back(name, v);
  return v;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  MAMDR_CHECK(child != nullptr);
  children_.emplace_back(name, child);
}

}  // namespace nn
}  // namespace mamdr

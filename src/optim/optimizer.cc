#include "optim/optimizer.h"

#include "optim/adagrad.h"
#include "optim/adam.h"
#include "optim/sgd.h"

namespace mamdr {
namespace optim {

Optimizer::Optimizer(std::vector<Var> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  for (const auto& p : params_) {
    MAMDR_CHECK(p.defined());
    MAMDR_CHECK(p.requires_grad());
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         std::vector<Var> params, float lr) {
  if (name == "sgd") return std::make_unique<Sgd>(std::move(params), lr);
  if (name == "adagrad") {
    return std::make_unique<Adagrad>(std::move(params), lr);
  }
  MAMDR_CHECK(name == "adam") << "unknown inner optimizer '" << name << "'";
  return std::make_unique<Adam>(std::move(params), lr);
}

}  // namespace optim
}  // namespace mamdr

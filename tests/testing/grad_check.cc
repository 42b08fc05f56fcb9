#include "testing/grad_check.h"

#include <cmath>

#include "autograd/tape.h"

namespace mamdr {
namespace autograd {

GradCheckResult CheckGradients(const std::function<Var()>& forward,
                               const std::vector<Var>& params, float eps,
                               float tol) {
  GradCheckResult result;
  // Analytic pass.
  for (const auto& p : params) {
    Var mutable_p = p;
    mutable_p.ZeroGrad();
  }
  Var loss = forward();
  loss.Backward();
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (const auto& p : params) analytic.push_back(p.grad().Clone());

  // Numeric pass: central differences per element.
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Var p = params[pi];
    Tensor& val = p.mutable_value();
    // Checked element access: the two forwards per element dominate.
    for (int64_t i = 0; i < val.size(); ++i) {
      const float orig = val.at(i);
      float lp, lm;
      {
        NoGradGuard ng;
        val.at(i) = orig + eps;
        lp = forward().value().at(0);
        val.at(i) = orig - eps;
        lm = forward().value().at(0);
        val.at(i) = orig;
      }
      const float numeric = (lp - lm) / (2.0f * eps);
      const float a = analytic[pi].at(i);
      const float abs_err = std::fabs(numeric - a);
      const float rel_err =
          abs_err / std::max(1.0f, std::max(std::fabs(numeric), std::fabs(a)));
      result.max_abs_err = std::max(result.max_abs_err, abs_err);
      result.max_rel_err = std::max(result.max_rel_err, rel_err);
      if (rel_err > tol) result.ok = false;
    }
  }
  return result;
}

}  // namespace autograd
}  // namespace mamdr

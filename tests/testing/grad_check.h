// Numeric gradient checking for the autograd engine: the central-difference
// checker the autograd, nn and model tests verify every op against.
#ifndef MAMDR_TESTS_TESTING_GRAD_CHECK_H_
#define MAMDR_TESTS_TESTING_GRAD_CHECK_H_

#include <functional>
#include <vector>

#include "autograd/variable.h"

namespace mamdr {
namespace autograd {

struct GradCheckResult {
  bool ok = true;
  float max_abs_err = 0.0f;
  float max_rel_err = 0.0f;
};

/// Compare analytic gradients against central finite differences.
///
/// `forward` must rebuild the graph from the current values of `params`
/// and return the scalar loss Var. Tolerances are loose because the engine
/// is float32.
GradCheckResult CheckGradients(
    const std::function<Var()>& forward, const std::vector<Var>& params,
    float eps = 1e-3f, float tol = 2e-2f);

}  // namespace autograd
}  // namespace mamdr

#endif  // MAMDR_TESTS_TESTING_GRAD_CHECK_H_

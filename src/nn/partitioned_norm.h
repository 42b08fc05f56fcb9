// Partitioned Normalization (STAR, Sheng et al. CIKM'21).
//
// Standard batch normalization assumes one data distribution; in MDR each
// domain has its own statistics. PN keeps *shared* scale/bias (gamma, beta)
// and *domain-specific* scale/bias (gamma_d, beta_d) and composes them
// multiplicatively / additively:
//
//   out = (gamma * gamma_d) ⊙ x_hat + (beta + beta_d)
//
// where x_hat standardizes x with batch statistics in training (moving
// averages per domain at inference). Gradients do not flow through the
// batch statistics (stop-gradient), matching common large-scale practice.
#ifndef MAMDR_NN_PARTITIONED_NORM_H_
#define MAMDR_NN_PARTITIONED_NORM_H_

#include <vector>

#include "nn/module.h"

namespace mamdr {
namespace nn {

class PartitionedNorm : public Module {
 public:
  PartitionedNorm(int64_t features, int64_t num_domains,
                  float momentum = 0.9f, float eps = 1e-5f);

  /// x: [B, features]; domain selects the specific scale/bias and the
  /// moving-statistics slot updated in training mode.
  Var Forward(const Var& x, int64_t domain, const Context& ctx);

  int64_t num_domains() const { return num_domains_; }

 protected:
  /// The per-domain moving statistics.
  void CopyOwnBuffersFrom(const Module& src) override;

 private:
  int64_t features_;
  int64_t num_domains_;
  float momentum_;
  float eps_;
  Var gamma_shared_;  // [1, F]
  Var beta_shared_;   // [1, F]
  std::vector<Var> gamma_domain_;  // each [1, F]
  std::vector<Var> beta_domain_;   // each [1, F]
  // Moving statistics per domain (not trainable).
  std::vector<Tensor> moving_mean_;  // each [1, F]
  std::vector<Tensor> moving_var_;   // each [1, F]
  std::vector<bool> stats_initialized_;
};

}  // namespace nn
}  // namespace mamdr

#endif  // MAMDR_NN_PARTITIONED_NORM_H_

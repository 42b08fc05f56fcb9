// STAR: Star Topology Adaptive Recommender (Sheng et al., CIKM'21) —
// the state-of-the-art MDR baseline of the paper.
#ifndef MAMDR_MODELS_STAR_H_
#define MAMDR_MODELS_STAR_H_

#include <memory>
#include <vector>

#include "models/feature_encoder.h"
#include "nn/partitioned_norm.h"

namespace mamdr {
namespace models {

/// Star-topology fully connected layer: the effective weight for domain d is
/// the elementwise product of the shared centre weight and the domain weight,
/// and the bias is their sum:
///
///   W_d_eff = W_shared ⊙ W_d,   b_d_eff = b_shared + b_d.
///
/// Domain weights start at ones (biases at zeros) so every domain begins at
/// the shared behaviour.
class StarLinear : public nn::Module {
 public:
  StarLinear(int64_t in_features, int64_t out_features, int64_t num_domains,
             Rng* rng);

  /// x W_d_eff + b_d_eff, then ReLU when `relu` (one autograd::Linear).
  Var Forward(const Var& x, int64_t domain, bool relu = false) const;

  int64_t out_features() const { return out_features_; }

 private:
  int64_t out_features_;
  Var weight_shared_;
  Var bias_shared_;
  std::vector<Var> weight_domain_;
  std::vector<Var> bias_domain_;
};

/// STAR model: partitioned normalization on the embeddings, then a stack of
/// StarLinear+ReLU layers and a star logit head.
class Star : public CtrModel {
 public:
  Star(const ModelConfig& config, Rng* rng);

  Var Forward(const data::Batch& batch, int64_t domain,
              const nn::Context& ctx) override;
  std::string name() const override { return "STAR"; }

 private:
  std::unique_ptr<FeatureEncoder> encoder_;
  std::unique_ptr<nn::PartitionedNorm> pn_;
  std::vector<std::unique_ptr<StarLinear>> layers_;
  std::unique_ptr<StarLinear> head_;
};

}  // namespace models
}  // namespace mamdr

#endif  // MAMDR_MODELS_STAR_H_

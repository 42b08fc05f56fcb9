// Domain Negotiation (Algorithm 1) — the paper's first contribution.
//
// Per outer epoch:
//   Θ̃₁ ← Θ; shuffle domains; for each domain i (sequentially):
//     Θ̃ᵢ₊₁ ← Θ̃ᵢ − α∇L(Θ̃ᵢ, Tⁱ)          (inner loop, Eq. 2)
//   Θ ← Θ + β(Θ̃ₙ₊₁ − Θ)                  (outer update, Eq. 3)
//
// The Taylor analysis of §IV-C shows the outer update direction contains
// −α Σᵢ Σ_{j<i} H̄ᵢ ḡⱼ, whose expectation under the per-epoch shuffle is the
// ascent direction of Σ ⟨ḡᵢ, ḡⱼ⟩ — DN maximizes cross-domain gradient inner
// products (mitigates conflict) in O(n) per epoch. β=1 degrades DN to
// Alternate Training and loses this property.
#ifndef MAMDR_CORE_DOMAIN_NEGOTIATION_H_
#define MAMDR_CORE_DOMAIN_NEGOTIATION_H_

#include <memory>

#include "core/framework.h"

namespace mamdr {
namespace core {

class DomainNegotiation : public Framework {
 public:
  DomainNegotiation(models::CtrModel* model,
                    const data::MultiDomainDataset* dataset,
                    TrainConfig config);

  void DoTrainEpoch() override;
  std::string name() const override { return "DN"; }

 private:
  std::unique_ptr<optim::Optimizer> inner_opt_;
  /// Θ at the start of the epoch, for the outer update; reused across
  /// epochs.
  std::vector<Tensor> theta_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_DOMAIN_NEGOTIATION_H_

// Shared + domain-specific parameter store (Eq. 4: Θ = θS + θi).
//
// The store realizes the composition *outside* the model: the model exposes
// one parameter vector, and the store installs either θS or θS + θi into it
// before forward/backward. This is what keeps MAMDR model agnostic — any
// structure gains per-domain specific parameters without code changes, and
// the platform can onboard a new domain by just growing the store.
#ifndef MAMDR_CORE_PARAM_STORE_H_
#define MAMDR_CORE_PARAM_STORE_H_

#include <vector>

#include "autograd/variable.h"

namespace mamdr {
namespace core {

class SharedSpecificStore {
 public:
  /// θS is initialized from the params' current values; every θi starts at
  /// zero so the initial composite equals θS.
  SharedSpecificStore(std::vector<autograd::Var> params, int64_t num_domains);

  int64_t num_domains() const {
    return static_cast<int64_t>(specific_.size());
  }

  /// params <- θS.
  void InstallShared();

  /// params <- θS + θ_domain.
  void InstallComposite(int64_t domain);

  /// θS <- current param values (after a phase that trained θS in place).
  void UpdateSharedFromParams();

  /// θ_domain <- current param values - θS (after a phase that trained the
  /// composite in place with θS frozen).
  void UpdateSpecificFromComposite(int64_t domain);

  /// Onboard a new domain: append zero-initialized specific parameters and
  /// return its index (mirrors the MDR platform of Fig. 2).
  int64_t AddDomain();

  const std::vector<Tensor>& shared() const { return shared_; }
  const std::vector<Tensor>& specific(int64_t domain) const;

  /// Mutable access for checkpoint restore. Values must keep their shapes.
  std::vector<Tensor>* mutable_shared() { return &shared_; }
  std::vector<Tensor>* mutable_specific(int64_t domain);

 private:
  std::vector<autograd::Var> params_;
  std::vector<Tensor> shared_;
  std::vector<std::vector<Tensor>> specific_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_PARAM_STORE_H_

// GradDrop: meta-learning gradient dropout (Tseng et al., ACCV'20 — [39] in
// the paper's related work).
//
// A Reptile-style per-task schedule where every inner-loop gradient is
// element-wise masked by an inverted-dropout Bernoulli mask. The random
// masking regularizes the inner adaptation so specific tasks (domains)
// cannot overfit the shared initialization. Included as an additional
// meta-learning baseline beyond the paper's Table X set.
#ifndef MAMDR_CORE_GRADDROP_H_
#define MAMDR_CORE_GRADDROP_H_

#include "core/reptile.h"

namespace mamdr {
namespace core {

class GradDrop : public Reptile {
 public:
  /// drop_rate is the probability an inner-gradient element is zeroed;
  /// at 0 the framework trains exactly like same-seed Reptile.
  GradDrop(models::CtrModel* model, const data::MultiDomainDataset* dataset,
           TrainConfig config, float drop_rate = 0.2f);

  std::string name() const override { return "GradDrop"; }

  float drop_rate() const { return drop_rate_; }

 private:
  float drop_rate_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_GRADDROP_H_

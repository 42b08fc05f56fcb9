// CDR-style pairwise transfer adapted to MDR (§III-C's "prior attempts").
//
// Cross-domain recommendation improves one target domain with auxiliary
// domains. Adapting it to MDR means treating every domain as the target and
// transferring from every auxiliary — per epoch, for each target i, the
// model takes a capped pass over each auxiliary j != i and then adapts on
// i, yielding a per-domain parameter set. This is O(n^2) domain passes per
// epoch, which is exactly the scalability complaint the paper raises (and
// the reason DN's O(n) schedule exists). Compare the two in
// bench_complexity.
#ifndef MAMDR_CORE_CDR_TRANSFER_H_
#define MAMDR_CORE_CDR_TRANSFER_H_

#include <vector>

#include "core/framework.h"

namespace mamdr {
namespace core {

class CdrTransfer : public Framework {
 public:
  CdrTransfer(models::CtrModel* model, const data::MultiDomainDataset* dataset,
              TrainConfig config);

  void DoTrainEpoch() override;
  std::string name() const override { return "CDR-Transfer"; }

 private:
  std::vector<std::vector<Tensor>> per_domain_params_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_CDR_TRANSFER_H_

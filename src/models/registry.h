// Model factory by structure name — benches and examples construct models by
// string, mirroring how the MDR platform selects structures per service.
#ifndef MAMDR_MODELS_REGISTRY_H_
#define MAMDR_MODELS_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/ctr_model.h"

namespace mamdr {
namespace models {

/// Known names: MLP, WDL, NeurFM, DeepFM, AutoInt, Shared-Bottom, MMOE, CGC,
/// PLE, STAR, RAW. The model records (name, config) as its spec().
Result<std::unique_ptr<CtrModel>> CreateModel(const std::string& name,
                                              const ModelConfig& config,
                                              Rng* rng);

/// All registered structure names.
std::vector<std::string> KnownModels();

}  // namespace models
}  // namespace mamdr

#endif  // MAMDR_MODELS_REGISTRY_H_

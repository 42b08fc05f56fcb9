#include "models/registry.h"

#include "models/autoint.h"
#include "models/deepfm.h"
#include "models/mlp_model.h"
#include "models/mmoe.h"
#include "models/neurfm.h"
#include "models/ple.h"
#include "models/raw_model.h"
#include "models/shared_bottom.h"
#include "models/star.h"
#include "models/wdl.h"

namespace mamdr {
namespace models {

Result<std::unique_ptr<CtrModel>> CreateModel(const std::string& name,
                                              const ModelConfig& config,
                                              Rng* rng) {
  MAMDR_RETURN_IF_ERROR(config.Validate());
  std::unique_ptr<CtrModel> model;
  if (name == "MLP") {
    model = std::make_unique<MlpModel>(config, rng);
  } else if (name == "WDL") {
    model = std::make_unique<Wdl>(config, rng);
  } else if (name == "NeurFM") {
    model = std::make_unique<NeurFm>(config, rng);
  } else if (name == "DeepFM") {
    model = std::make_unique<DeepFm>(config, rng);
  } else if (name == "AutoInt") {
    model = std::make_unique<AutoInt>(config, rng);
  } else if (name == "Shared-Bottom") {
    model = std::make_unique<SharedBottom>(config, rng);
  } else if (name == "MMOE") {
    model = std::make_unique<Mmoe>(config, rng);
  } else if (name == "CGC") {
    ModelConfig cgc = config;
    cgc.ple_layers = 1;
    model = std::make_unique<Ple>(cgc, rng);
  } else if (name == "PLE") {
    ModelConfig ple = config;
    ple.ple_layers = std::max<int64_t>(2, config.ple_layers);
    model = std::make_unique<Ple>(ple, rng);
  } else if (name == "STAR") {
    model = std::make_unique<Star>(config, rng);
  } else if (name == "RAW") {
    model = std::make_unique<RawModel>(config, rng);
  } else {
    return Status::NotFound("unknown model structure '" + name + "'");
  }
  return model;
}

std::vector<std::string> KnownModels() {
  return {"MLP",  "WDL",          "NeurFM", "DeepFM", "AutoInt", "Shared-Bottom",
          "MMOE", "CGC",          "PLE",    "STAR",   "RAW"};
}

}  // namespace models
}  // namespace mamdr

#include "models/ctr_model.h"

#include <algorithm>
#include <string>
#include <utility>

#include "autograd/tape.h"

namespace mamdr {
namespace models {

Status ModelConfig::Validate() const {
  const std::pair<const char*, int64_t> counts[] = {
      {"num_users", num_users},
      {"num_items", num_items},
      {"num_domains", num_domains},
      {"embedding_dim", embedding_dim},
      {"num_user_groups", num_user_groups},
      {"num_item_cats", num_item_cats},
      {"num_experts", num_experts},
      {"ple_layers", ple_layers},
      {"attn_heads", attn_heads},
      {"attn_head_dim", attn_head_dim}};
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      return Status::InvalidArgument(std::string(name) + " must be >= 1, got " +
                                     std::to_string(value));
    }
  }
  const std::pair<const char*, const std::vector<int64_t>*> widths[] = {
      {"hidden", &hidden},
      {"expert_hidden", &expert_hidden},
      {"tower_hidden", &tower_hidden}};
  for (const auto& [name, layers] : widths) {
    if (layers->empty()) {  // nn::MlpBlock aborts on an empty layer list
      return Status::InvalidArgument(std::string(name) +
                                     " must list at least one layer");
    }
    for (size_t i = 0; i < layers->size(); ++i) {
      if ((*layers)[i] < 1) {
        return Status::InvalidArgument(
            std::string(name) + "[" + std::to_string(i) +
            "] must be >= 1, got " + std::to_string((*layers)[i]));
      }
    }
  }
  if (!(dropout >= 0.0f && dropout < 1.0f)) {
    return Status::InvalidArgument("dropout must be in [0, 1), got " +
                                   std::to_string(dropout));
  }
  return Status::OK();
}

std::vector<float> CtrModel::Score(const data::Batch& batch, int64_t domain) {
  autograd::NoGradGuard no_grad;
  nn::Context ctx;  // eval mode
  Var logits = Forward(batch, domain, ctx);
  Tensor probs = autograd::SigmoidValue(logits.value());
  std::vector<float> out(static_cast<size_t>(probs.size()));
  std::copy(probs.data(), probs.data() + probs.size(), out.begin());
  return out;
}

Var CtrModel::Loss(const data::Batch& batch, int64_t domain,
                   const nn::Context& ctx) {
  Var logits = Forward(batch, domain, ctx);
  Tensor labels = Tensor::Uninit({logits.value().rows(), 1});
  MAMDR_CHECK_EQ(static_cast<int64_t>(batch.labels.size()),
                 logits.value().rows());
  std::copy(batch.labels.begin(), batch.labels.end(), labels.data());
  return autograd::BceWithLogitsMean(logits, labels);
}

}  // namespace models
}  // namespace mamdr

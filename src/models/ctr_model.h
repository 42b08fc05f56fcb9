// Base interface all CTR models implement.
//
// A model maps a batch of (user, item) pairs to click logits. Multi-domain
// models (Shared-Bottom, MMoE, PLE, STAR) route by `domain`; single-domain
// models ignore it. The MAMDR framework never looks inside a model — it only
// uses Parameters() — which is what "model agnostic" means in the paper.
#ifndef MAMDR_MODELS_CTR_MODEL_H_
#define MAMDR_MODELS_CTR_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/batch.h"
#include "nn/module.h"

namespace mamdr {
namespace models {

using autograd::Var;

/// Hyper-parameters shared by all model structures.
struct ModelConfig {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_domains = 1;
  int64_t embedding_dim = 16;
  std::vector<int64_t> hidden = {64, 32};
  float dropout = 0.0f;
  /// Derived categorical fields (hash buckets of the ids).
  int64_t num_user_groups = 50;
  int64_t num_item_cats = 25;
  /// MMoE / PLE.
  int64_t num_experts = 2;
  std::vector<int64_t> expert_hidden = {64, 32};
  std::vector<int64_t> tower_hidden = {16};
  /// PLE only: extraction layers (1 = CGC).
  int64_t ple_layers = 2;
  /// AutoInt.
  int64_t attn_heads = 2;
  int64_t attn_head_dim = 8;
  /// Freeze embedding tables (Taobao-style pretrained features).
  bool frozen_embeddings = false;
  uint64_t seed = 7;

  /// InvalidArgument unless every size, count and layer width is >= 1,
  /// each layer list is non-empty, dropout is in [0, 1) and
  /// ple_layers >= 1. CreateModel checks this before it builds anything.
  Status Validate() const;
};

/// What CreateModel built a model from: its registry name and config.
struct ModelSpec {
  std::string name;
  ModelConfig config;
};

class CtrModel : public nn::Module {
 public:
  ~CtrModel() override = default;

  /// The spec CreateModel recorded, from which another model of the same
  /// structure can be built; nullptr for a model constructed directly.
  const ModelSpec* spec() const { return spec_ ? &*spec_ : nullptr; }
  void set_spec(ModelSpec spec) { spec_ = std::move(spec); }

  /// Click logits [B, 1].
  virtual Var Forward(const data::Batch& batch, int64_t domain,
                      const nn::Context& ctx) = 0;

  /// Structure name ("MLP", "STAR", ...).
  virtual std::string name() const = 0;

  /// Sigmoid scores without recording a graph (evaluation).
  std::vector<float> Score(const data::Batch& batch, int64_t domain);

  /// Mean BCE loss over the batch (builds a graph for Backward()).
  Var Loss(const data::Batch& batch, int64_t domain, const nn::Context& ctx);

 private:
  std::optional<ModelSpec> spec_;
};

}  // namespace models
}  // namespace mamdr

#endif  // MAMDR_MODELS_CTR_MODEL_H_

// Shared feature encoder: ids -> field embeddings.
//
// Mirrors the paper's "global feature storage": one embedding table per
// feature field, shared by whichever model structure sits on top. Fields are
// user id, item id, and two derived categorical buckets (user group / item
// category), giving FM-style models four interacting fields.
#ifndef MAMDR_MODELS_FEATURE_ENCODER_H_
#define MAMDR_MODELS_FEATURE_ENCODER_H_

#include <memory>
#include <vector>

#include "data/batch.h"
#include "models/ctr_model.h"
#include "nn/embedding.h"

namespace mamdr {
namespace models {

class FeatureEncoder : public nn::Module {
 public:
  FeatureEncoder(const ModelConfig& config, Rng* rng);

  /// Field embeddings, each [B, embedding_dim].
  std::vector<Var> Fields(const data::Batch& batch) const;

  /// ConcatCols of Fields -> [B, num_fields * embedding_dim], gathered in
  /// one EmbeddingConcat node.
  Var Concat(const data::Batch& batch) const;

  int64_t num_fields() const { return 4; }
  int64_t field_dim() const { return dim_; }
  int64_t concat_dim() const { return num_fields() * dim_; }

 private:
  int64_t dim_;
  int64_t num_user_groups_;
  int64_t num_item_cats_;
  std::unique_ptr<nn::Embedding> user_emb_;
  std::unique_ptr<nn::Embedding> item_emb_;
  std::unique_ptr<nn::Embedding> user_group_emb_;
  std::unique_ptr<nn::Embedding> item_cat_emb_;
};

}  // namespace models
}  // namespace mamdr

#endif  // MAMDR_MODELS_FEATURE_ENCODER_H_

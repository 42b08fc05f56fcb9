#include "models/feature_encoder.h"

namespace mamdr {
namespace models {

FeatureEncoder::FeatureEncoder(const ModelConfig& config, Rng* rng)
    : dim_(config.embedding_dim),
      num_user_groups_(config.num_user_groups),
      num_item_cats_(config.num_item_cats) {
  const bool trainable = !config.frozen_embeddings;
  user_emb_ = std::make_unique<nn::Embedding>(config.num_users, dim_, rng,
                                              trainable);
  item_emb_ = std::make_unique<nn::Embedding>(config.num_items, dim_, rng,
                                              trainable);
  user_group_emb_ =
      std::make_unique<nn::Embedding>(num_user_groups_, dim_, rng, trainable);
  item_cat_emb_ =
      std::make_unique<nn::Embedding>(num_item_cats_, dim_, rng, trainable);
  RegisterModule("user_emb", user_emb_.get());
  RegisterModule("item_emb", item_emb_.get());
  RegisterModule("user_group_emb", user_group_emb_.get());
  RegisterModule("item_cat_emb", item_cat_emb_.get());
}

namespace {

// The derived categorical field: each id's hash bucket.
std::vector<int64_t> Buckets(const std::vector<int64_t>& ids,
                             int64_t buckets) {
  std::vector<int64_t> out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out[i] = ids[i] % buckets;
  return out;
}

}  // namespace

std::vector<Var> FeatureEncoder::Fields(const data::Batch& batch) const {
  return {user_emb_->Forward(batch.users), item_emb_->Forward(batch.items),
          user_group_emb_->Forward(Buckets(batch.users, num_user_groups_)),
          item_cat_emb_->Forward(Buckets(batch.items, num_item_cats_))};
}

Var FeatureEncoder::Concat(const data::Batch& batch) const {
  return autograd::EmbeddingConcat(
      {user_emb_->table(), item_emb_->table(), user_group_emb_->table(),
       item_cat_emb_->table()},
      {batch.users, batch.items, Buckets(batch.users, num_user_groups_),
       Buckets(batch.items, num_item_cats_)});
}

}  // namespace models
}  // namespace mamdr

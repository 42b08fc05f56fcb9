#include "ps/worker.h"

#include <algorithm>

#include "data/batch.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "optim/optimizer.h"
#include "optim/param_snapshot.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace ps {
namespace {

std::vector<int64_t> Dedup(std::vector<int64_t> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

}  // namespace

RowExtractor MakeDefaultRowExtractor(models::CtrModel* model,
                                     const models::ModelConfig& config,
                                     std::vector<bool>* is_embedding_out) {
  // Resolve the FeatureEncoder tables by qualified parameter name.
  struct TableInfo {
    int64_t index = -1;
    enum Kind { kUser, kItem, kUserGroup, kItemCat } kind = kUser;
  };
  std::vector<TableInfo> tables;
  const auto named = model->NamedParameters();
  if (is_embedding_out != nullptr) {
    is_embedding_out->assign(named.size(), false);
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const std::string& name = named[i].first;
    TableInfo info;
    info.index = static_cast<int64_t>(i);
    if (name.find("user_emb.table") != std::string::npos) {
      info.kind = TableInfo::kUser;
    } else if (name.find("item_emb.table") != std::string::npos) {
      info.kind = TableInfo::kItem;
    } else if (name.find("user_group_emb.table") != std::string::npos) {
      info.kind = TableInfo::kUserGroup;
    } else if (name.find("item_cat_emb.table") != std::string::npos) {
      info.kind = TableInfo::kItemCat;
    } else {
      continue;
    }
    tables.push_back(info);
    if (is_embedding_out != nullptr) (*is_embedding_out)[i] = true;
  }
  const int64_t groups = config.num_user_groups;
  const int64_t cats = config.num_item_cats;
  return [tables, groups, cats](const data::Batch& batch) {
    std::vector<TouchedRows> out;
    out.reserve(tables.size());
    for (const auto& t : tables) {
      TouchedRows tr;
      tr.param_index = t.index;
      switch (t.kind) {
        case TableInfo::kUser:
          tr.rows = batch.users;
          break;
        case TableInfo::kItem:
          tr.rows = batch.items;
          break;
        case TableInfo::kUserGroup:
          tr.rows.reserve(batch.users.size());
          for (int64_t u : batch.users) tr.rows.push_back(u % groups);
          break;
        case TableInfo::kItemCat:
          tr.rows.reserve(batch.items.size());
          for (int64_t v : batch.items) tr.rows.push_back(v % cats);
          break;
      }
      out.push_back(std::move(tr));
    }
    return out;
  };
}

Worker::Worker(int64_t id, std::unique_ptr<models::CtrModel> model,
               std::unique_ptr<PsClient> client,
               const data::MultiDomainDataset* dataset, WorkerConfig config,
               RowExtractor extractor)
    : id_(id),
      model_(std::move(model)),
      client_(std::move(client)),
      dataset_(dataset),
      config_(std::move(config)),
      extractor_(std::move(extractor)),
      rng_(config_.train.seed + static_cast<uint64_t>(id) * 7919),
      retry_(config_.retry,
             config_.train.seed + static_cast<uint64_t>(id) * 15485863) {
  MAMDR_CHECK(model_ != nullptr);
  MAMDR_CHECK(client_ != nullptr);
  MAMDR_CHECK(!config_.domains.empty());
  params_ = model_->Parameters();
  MAMDR_CHECK_EQ(static_cast<int64_t>(params_.size()), client_->num_params());
  caches_.resize(params_.size());
  static_cache_ = optim::Snapshot(params_);
  if (config_.run_dr) {
    store_ = std::make_unique<core::SharedSpecificStore>(
        params_, dataset_->num_domains());
    core::TrainConfig dr_cfg = config_.train;
    dr_cfg.seed = config_.train.seed + static_cast<uint64_t>(id) * 104729;
    dr_ = std::make_unique<core::DomainRegularization>(model_.get(), dataset_,
                                                       dr_cfg, store_.get());
  }
}

Worker::~Worker() = default;

const EmbeddingCache& Worker::cache(int64_t param_index) const {
  return caches_[static_cast<size_t>(param_index)];
}

Status Worker::CallPs(const char* what, const std::function<Status()>& op) {
  static obs::Counter* ps_calls =
      obs::Registry::Global().counter("ps.worker.calls");
  ps_calls->Add();
  return retry_.Run(op, what);
}

Status Worker::EnsureRowsFresh(const data::Batch& batch) {
  for (const auto& touched : extractor_(batch)) {
    const size_t idx = static_cast<size_t>(touched.param_index);
    Tensor local_view = params_[idx].mutable_value();  // shares storage
    if (config_.use_embedding_cache) {
      // Dynamic-cache path: only missing rows go to the PS; pulled values
      // also seed the static-cache so the epoch-end delta has a base.
      std::vector<int64_t> misses =
          caches_[idx].TouchAndGetMisses(touched.rows);
      if (!misses.empty()) {
        MAMDR_RETURN_IF_ERROR(CallPs("PullRows", [&] {
          return client_->PullRows(touched.param_index, misses, &local_view);
        }));
        const int64_t d = local_view.cols();
        for (int64_t r : misses) {
          std::copy(local_view.data() + r * d, local_view.data() + (r + 1) * d,
                    static_cache_[idx].data() + r * d);
        }
      }
    } else {
      // No-cache baseline: every batch pulls its rows fresh.
      const std::vector<int64_t> rows = Dedup(touched.rows);
      MAMDR_RETURN_IF_ERROR(CallPs("PullRows", [&] {
        return client_->PullRows(touched.param_index, rows, &local_view);
      }));
    }
  }
  return Status::OK();
}

Status Worker::PushBatchEmbeddingGrads(const data::Batch& batch) {
  // Synchronous baseline: embedding updates are applied server-side as
  // -lr * grad after every step.
  for (const auto& touched : extractor_(batch)) {
    const size_t idx = static_cast<size_t>(touched.param_index);
    if (!params_[idx].has_grad()) continue;
    const std::vector<int64_t> rows = Dedup(touched.rows);
    MAMDR_RETURN_IF_ERROR(CallPs("PushRowDeltas", [&] {
      return client_->PushRowDeltas(touched.param_index, rows,
                                    params_[idx].grad(),
                                    -config_.train.inner_lr);
    }));
  }
  return Status::OK();
}

Status Worker::RunDnEpoch() { return RunDnEpochOn(config_.domains); }

Status Worker::RunDnEpochOn(const std::vector<int64_t>& domains) {
  obs::ContextSpan span("worker_dn_epoch", "ps");
  // (1)-(2): pull dense parameters from the PS into the local replica; the
  // pulled values are the static-cache base Θ for the outer update.
  std::vector<Tensor> views;
  views.reserve(params_.size());
  for (auto& p : params_) views.push_back(p.mutable_value());
  MAMDR_RETURN_IF_ERROR(
      CallPs("PullDense", [&] { return client_->PullDense(&views); }));
  static_cache_ = optim::Snapshot(params_);
  for (auto& c : caches_) c.Clear();

  // (3): DN inner loop over the domains.
  auto inner = optim::MakeOptimizer(config_.train.inner_optimizer, params_,
                                    config_.train.inner_lr);
  std::vector<int64_t> order = domains;
  rng_.Shuffle(&order);
  nn::Context ctx{/*training=*/true, &rng_};
  data::Batch batch;
  for (int64_t d : order) {
    data::Batcher batcher(&dataset_->domain(d).train, config_.train.batch_size,
                          &rng_);
    int64_t batches = 0;
    while (batcher.Next(&batch)) {
      MAMDR_RETURN_IF_ERROR(EnsureRowsFresh(batch));
      inner->ZeroGrad();
      model_->Loss(batch, d, ctx).Backward();
      if (!config_.use_embedding_cache) {
        MAMDR_RETURN_IF_ERROR(PushBatchEmbeddingGrads(batch));
      }
      inner->Step();
      ++batches;
      if (config_.train.dn_max_batches > 0 &&
          batches >= config_.train.dn_max_batches) {
        break;
      }
    }
  }

  // (4): push the meta-delta Θ̃ − Θ; the server applies Eq. 3 with β.
  std::vector<Tensor> dense_delta(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    if (client_->is_embedding(static_cast<int64_t>(i))) continue;
    dense_delta[i] = ops::Sub(params_[i].value(), static_cache_[i]);
  }
  MAMDR_RETURN_IF_ERROR(CallPs("PushDenseDelta", [&] {
    return client_->PushDenseDelta(dense_delta, config_.train.outer_lr);
  }));
  if (config_.use_embedding_cache) {
    for (size_t i = 0; i < params_.size(); ++i) {
      if (!client_->is_embedding(static_cast<int64_t>(i))) continue;
      const std::vector<int64_t> rows = caches_[i].CachedRows();
      if (rows.empty()) continue;
      Tensor delta = ops::Sub(params_[i].value(), static_cache_[i]);
      MAMDR_RETURN_IF_ERROR(CallPs("PushRowDeltas", [&] {
        return client_->PushRowDeltas(static_cast<int64_t>(i), rows, delta,
                                      config_.train.outer_lr);
      }));
    }
  }
  return Status::OK();
}

Status Worker::RunDrPhase() {
  if (!config_.run_dr) return Status::OK();
  obs::ContextSpan span("worker_dr_phase", "ps");
  // Refresh the full parameter state from the PS as the shared basis θS.
  MAMDR_RETURN_IF_ERROR(RestoreFromPs());
  store_->UpdateSharedFromParams();
  for (int64_t d : config_.domains) dr_->DrForDomain(d);
  return Status::OK();
}

Status Worker::RestoreFromPs() {
  obs::ContextSpan span("worker_restore_from_ps", "ps");
  static obs::Counter* restores =
      obs::Registry::Global().counter("ps.worker.restores");
  restores->Add();
  std::vector<Tensor> views;
  views.reserve(params_.size());
  for (auto& p : params_) views.push_back(p.mutable_value());
  MAMDR_RETURN_IF_ERROR(
      CallPs("PullDense", [&] { return client_->PullDense(&views); }));
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!client_->is_embedding(static_cast<int64_t>(i))) continue;
    Tensor view = params_[i].mutable_value();
    MAMDR_RETURN_IF_ERROR(CallPs("PullFullTable", [&] {
      return client_->PullFullTable(static_cast<int64_t>(i), &view);
    }));
  }
  // The replica is now exactly the PS state: any partial inner-loop progress
  // is gone, so the delta base and row caches must restart from here.
  static_cache_ = optim::Snapshot(params_);
  for (auto& c : caches_) c.Clear();
  return Status::OK();
}

}  // namespace ps
}  // namespace mamdr

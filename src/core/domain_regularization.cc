#include "core/domain_regularization.h"

#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "optim/param_snapshot.h"

namespace mamdr {
namespace core {

DomainRegularization::DomainRegularization(
    models::CtrModel* model, const data::MultiDomainDataset* dataset,
    TrainConfig config, SharedSpecificStore* external_store)
    : Framework(model, dataset, std::move(config)),
      external_store_(external_store) {
  if (external_store_ == nullptr) {
    owned_store_ = std::make_unique<SharedSpecificStore>(
        params_, dataset_->num_domains());
    shared_opt_ = MakeInnerOptimizer(config_.inner_lr);
  }
  inner_opt_ = MakeInnerOptimizer(config_.inner_lr);
  install_domain_ = [this](int64_t d, const std::vector<autograd::Var>& dst) {
    store()->InstallComposite(d, dst);
  };
}

void DomainRegularization::DoTrainEpoch() {
  if (external_store_ == nullptr) {
    // Standalone DR: shared parameters get a plain Alternate pass.
    SharedSpecificStore* s = store();
    s->InstallShared();
    for (int64_t d : ShuffledDomains()) TrainDomainPass(d, shared_opt_.get());
    s->UpdateSharedFromParams();
  }
  DrPhase();
}

void DomainRegularization::DrPhase() {
  obs::ContextSpan span("dr_phase", "mamdr");
  for (int64_t i = 0; i < dataset_->num_domains(); ++i) DrForDomain(i);
  ++dr_phase_count_;
}

void DomainRegularization::DrForDomain(int64_t target) {
  SharedSpecificStore* s = store();
  const int64_t n = dataset_->num_domains();

  // Sample k helper domains (Algorithm 2 line 1), excluding the target when
  // other domains exist.
  std::vector<int64_t> pool;
  for (int64_t d = 0; d < n; ++d) {
    if (d != target) pool.push_back(d);
  }
  std::vector<int64_t> helpers;
  if (pool.empty()) {
    helpers.push_back(target);  // single-domain corner: self-regularization
  } else {
    const size_t k = std::min<size_t>(
        static_cast<size_t>(config_.dr_sample_k), pool.size());
    for (size_t idx : rng_.SampleWithoutReplacement(pool.size(), k)) {
      helpers.push_back(pool[idx]);
    }
  }

  if (obs::TelemetrySink* sink = obs::Sink()) {
    obs::DrHelperRecord r;
    r.epoch = static_cast<int>(dr_phase_count_);
    r.target = static_cast<int>(target);
    for (int64_t j : helpers) r.helpers.push_back(static_cast<int>(j));
    sink->RecordDrHelpers(std::move(r));
  }

  // Work on the composite Θ = θS + θ_target; θS stays frozen, so composite
  // deltas are exactly specific-parameter deltas.
  s->InstallComposite(target);
  for (int64_t j : helpers) {
    // A fresh inner optimizer and snapshot per helper, in storage kept
    // across helpers and targets.
    optim::SnapshotInto(params_, &composite_);
    inner_opt_->Reset();
    // θ̃ᵢ ← update on helper domain j (Eq. 6), then on target domain i as
    // regularization (Eq. 7). The paper fixes the helper -> target order
    // (Eq. 22); the other orders exist for the design-ablation bench.
    bool helper_first = true;
    switch (config_.dr_order) {
      case TrainConfig::DrOrder::kHelperFirst:
        helper_first = true;
        break;
      case TrainConfig::DrOrder::kTargetFirst:
        helper_first = false;
        break;
      case TrainConfig::DrOrder::kRandom:
        helper_first = rng_.Bernoulli(0.5);
        break;
    }
    const int64_t first = helper_first ? j : target;
    const int64_t second = helper_first ? target : j;
    TrainDomainPass(first, inner_opt_.get(), config_.dr_max_batches);
    TrainDomainPass(second, inner_opt_.get(), config_.dr_max_batches);
    // θᵢ ← θᵢ + γ(θ̃ᵢ − θᵢ) (Eq. 8), expressed on the composite.
    optim::MetaInterpolate(params_, composite_, config_.dr_lr);
  }
  s->UpdateSpecificFromComposite(target);
}

}  // namespace core
}  // namespace mamdr

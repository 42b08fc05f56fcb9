#include "core/domain_negotiation.h"

#include "obs/telemetry.h"
#include "optim/param_snapshot.h"

namespace mamdr {
namespace core {

DomainNegotiation::DomainNegotiation(models::CtrModel* model,
                                     const data::MultiDomainDataset* dataset,
                                     TrainConfig config)
    : Framework(model, dataset, std::move(config)) {
  inner_opt_ = MakeInnerOptimizer(config_.inner_lr);
}

void DomainNegotiation::DoTrainEpoch() {
  // Opt-in conflict probe: measure cross-domain gradient alignment at the
  // epoch's starting point Θ, before the inner loop moves it (§III-B).
  if (obs::TelemetrySink* sink = obs::Sink();
      sink != nullptr && sink->options().probe_conflict) {
    const metrics::ConflictReport report = MeasureDomainConflict();
    obs::ConflictRecord r;
    r.framework = name();
    r.epoch = static_cast<int>(epochs_completed());
    r.mean_inner_product = report.mean_inner_product;
    r.mean_cosine = report.mean_cosine;
    r.conflict_rate = report.conflict_rate;
    r.num_pairs = static_cast<int>(report.num_pairs);
    sink->RecordConflict(std::move(r));
  }

  // Θ̃₁ ← Θ (the params already hold Θ; remember it for the outer update).
  // The inner optimizer's state (Adam moments) persists across outer
  // iterations — the inner loop is one continuous optimization trajectory
  // whose per-epoch displacement the outer update scales by β. Resetting the
  // state each epoch costs ~0.02 AUC at bench scale.
  optim::SnapshotInto(params_, &theta_);

  // Randomly shuffle the domain order (Algorithm 1 line 3) — the shuffle is
  // what turns the Taylor cross-term into the symmetric InnerGrad (Eq. 19).
  // dn_shuffle=false keeps a fixed order, for the design-ablation bench.
  std::vector<int64_t> order;
  if (config_.dn_shuffle) {
    order = ShuffledDomains();
  } else {
    for (int64_t d = 0; d < dataset_->num_domains(); ++d) order.push_back(d);
  }

  // Inner loop: sequential updates across domains (Eq. 2).
  for (int64_t d : order) {
    TrainDomainPass(d, inner_opt_.get(), config_.dn_max_batches);
  }

  // Outer loop: Θ ← Θ + β(Θ̃ₙ₊₁ − Θ) (Eq. 3).
  optim::MetaInterpolate(params_, theta_, config_.outer_lr);
}

}  // namespace core
}  // namespace mamdr

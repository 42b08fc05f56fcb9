#include "core/framework.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "data/batch.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "optim/param_snapshot.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace core {

Status TrainConfig::Validate() const {
  if (epochs < 1) {
    return Status::InvalidArgument("epochs must be >= 1, got " +
                                   std::to_string(epochs));
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1, got " +
                                   std::to_string(batch_size));
  }
  if (dr_sample_k < 1) {
    return Status::InvalidArgument("dr_sample_k must be >= 1, got " +
                                   std::to_string(dr_sample_k));
  }
  const std::pair<const char*, float> rates[] = {
      {"inner_lr", inner_lr}, {"outer_lr", outer_lr}, {"dr_lr", dr_lr}};
  for (const auto& [name, lr] : rates) {
    if (!std::isfinite(lr) || lr < 0.0f) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be finite and >= 0, got " +
                                     std::to_string(lr));
    }
  }
  if (inner_optimizer != "adam" && inner_optimizer != "sgd" &&
      inner_optimizer != "adagrad") {
    return Status::InvalidArgument("unknown inner optimizer '" +
                                   inner_optimizer +
                                   "' (want adam|sgd|adagrad)");
  }
  return Status::OK();
}

Framework::Framework(models::CtrModel* model,
                     const data::MultiDomainDataset* dataset,
                     TrainConfig config)
    : model_(model),
      dataset_(dataset),
      config_(std::move(config)),
      rng_(config_.seed) {
  MAMDR_CHECK(model != nullptr);
  MAMDR_CHECK(dataset != nullptr);
  MAMDR_CHECK_GT(dataset->num_domains(), 0);
  params_ = model_->Parameters();
}

void Framework::TrainEpoch() {
  obs::TelemetrySink* sink = obs::Sink();
  if (sink != nullptr) {
    epoch_acc_.assign(static_cast<size_t>(dataset_->num_domains()),
                      EpochAccumulator{});
  }
  {
    obs::ContextSpan span(name() + "_epoch", "core");
    DoTrainEpoch();
  }
  if (sink != nullptr) {
    for (size_t d = 0; d < epoch_acc_.size(); ++d) {
      const EpochAccumulator& acc = epoch_acc_[d];
      if (acc.batches == 0) continue;
      obs::DomainEpochRecord r;
      r.framework = name();
      r.epoch = static_cast<int>(epochs_completed_);
      r.domain = static_cast<int>(d);
      r.batches = static_cast<int>(acc.batches);
      r.mean_loss = acc.loss_sum / static_cast<double>(acc.batches);
      r.grad_norm = std::sqrt(acc.grad_sq_sum);
      sink->RecordDomainEpoch(std::move(r));
    }
  }
  ++epochs_completed_;
}

void Framework::Train() {
  for (int64_t e = 0; e < config_.epochs; ++e) {
    TrainEpoch();
    if (config_.verbose) {
      MAMDR_LOG(Info) << name() << " epoch " << (e + 1) << "/"
                      << config_.epochs
                      << " avg test AUC=" << AverageTestAuc();
    }
  }
}

metrics::ScoreFn Framework::Scorer() {
  return [this](const data::Batch& batch, int64_t domain) {
    return model_->Score(batch, domain);
  };
}

std::vector<double> Framework::Evaluate(metrics::Split split) {
  obs::ContextSpan span("evaluate", "core");
  const metrics::EvalParallel policy = ScorerIsThreadSafe()
                                           ? metrics::EvalParallel::kParallel
                                           : metrics::EvalParallel::kSerial;
  std::vector<double> aucs =
      metrics::EvaluateAllDomains(*dataset_, split, Scorer(), policy);
  if (obs::TelemetrySink* sink = obs::Sink()) {
    const char* split_name = split == metrics::Split::kTrain  ? "train"
                             : split == metrics::Split::kVal ? "val"
                                                             : "test";
    for (size_t d = 0; d < aucs.size(); ++d) {
      obs::EvalRecord r;
      r.framework = name();
      r.split = split_name;
      r.domain = static_cast<int>(d);
      r.auc = aucs[d];
      sink->RecordEval(std::move(r));
    }
  }
  return aucs;
}

std::vector<double> Framework::EvaluateTest() {
  return Evaluate(metrics::Split::kTest);
}

double Framework::AverageTestAuc() {
  const auto aucs = EvaluateTest();
  double sum = 0.0;
  for (double a : aucs) sum += a;
  return sum / static_cast<double>(aucs.size());
}

int64_t Framework::TrainDomainPass(int64_t domain, optim::Optimizer* opt,
                                   int64_t max_batches) {
  const auto& train = dataset_->domain(domain).train;
  data::Batcher batcher(&train, config_.batch_size, &rng_);
  nn::Context ctx{/*training=*/true, &rng_};
  data::Batch batch;
  int64_t batches = 0;
  // Accumulate telemetry only when a sink is installed: the per-batch loss
  // read and gradient-norm reduction are pure overhead otherwise.
  const bool telemetry =
      obs::Sink() != nullptr &&
      domain < static_cast<int64_t>(epoch_acc_.size());
  EpochAccumulator* acc =
      telemetry ? &epoch_acc_[static_cast<size_t>(domain)] : nullptr;
  while (batcher.Next(&batch)) {
    opt->ZeroGrad();
    autograd::Var loss = model_->Loss(batch, domain, ctx);
    loss.Backward();
    if (acc != nullptr) {
      acc->loss_sum += static_cast<double>(loss.value().at(0));
      for (const autograd::Var& p : params_) {
        if (p.has_grad()) {
          acc->grad_sq_sum += static_cast<double>(ops::SquaredNorm(p.grad()));
        }
      }
      ++acc->batches;
    }
    opt->Step();
    ++batches;
    if (max_batches > 0 && batches >= max_batches) break;
  }
  ++domain_pass_count_;
  batch_step_count_ += batches;
  return batches;
}

metrics::ConflictReport Framework::MeasureDomainConflict() {
  obs::ContextSpan span("conflict_probe", "core");
  // Local RNG + eval-mode context: probing must not perturb the training
  // RNG stream, or enabling telemetry would change the training trajectory.
  Rng probe_rng(1);
  nn::Context ctx{/*training=*/false, &probe_rng};
  std::vector<Tensor> grads;
  grads.reserve(static_cast<size_t>(dataset_->num_domains()));
  for (int64_t d = 0; d < dataset_->num_domains(); ++d) {
    for (auto& p : params_) p.ZeroGrad();
    data::Batch b = data::Batcher::All(dataset_->domain(d).train);
    model_->Loss(b, d, ctx).Backward();
    grads.push_back(optim::Flatten(optim::GradSnapshot(params_)));
  }
  for (auto& p : params_) p.ZeroGrad();
  return metrics::MeasureConflict(grads);
}

std::unique_ptr<optim::Optimizer> Framework::MakeInnerOptimizer(float lr) {
  return optim::MakeOptimizer(config_.inner_optimizer, params_, lr);
}

}  // namespace core
}  // namespace mamdr

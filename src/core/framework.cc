#include "core/framework.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "data/batch.h"
#include "models/registry.h"
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
  MutexLock lock(&pool_mu_);
  pool_.push_back(
      std::make_unique<PooledModel>(PooledModel{model_, params_, nullptr}));
  idle_.push_back(pool_.back().get());
}

void Framework::TrainEpoch() {
  obs::TelemetrySink* sink = obs::Sink();
  if (sink != nullptr) {
    epoch_acc_.assign(static_cast<size_t>(dataset_->num_domains()),
                      PassTelemetry{});
  }
  {
    obs::ContextSpan span(name() + "_epoch", "core");
    DoTrainEpoch();
  }
  ReleaseStepBuffers();
  if (sink != nullptr) {
    for (size_t d = 0; d < epoch_acc_.size(); ++d) {
      const PassTelemetry& acc = epoch_acc_[d];
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
  if (!install_domain_) {
    return [this](const data::Batch& batch, int64_t domain) {
      return model_->Score(batch, domain);
    };
  }
  return [this](const data::Batch& batch, int64_t domain) {
    PooledModel* m = TakeModel();
    struct Lease {
      Framework* fw;
      PooledModel* m;
      ~Lease() { fw->ReturnModel(m); }
    } lease{this, m};
    install_domain_(domain, m->params);
    return m->model->Score(batch, domain);
  };
}

Framework::PooledModel* Framework::TakeModel() {
  PooledModel* m = nullptr;
  {
    MutexLock lock(&pool_mu_);
    while (idle_.empty() && model_->spec() == nullptr) pool_cv_.Wait(&pool_mu_);
    if (!idle_.empty()) {
      m = idle_.back();
      idle_.pop_back();
    }
  }
  if (m == nullptr) {
    // Every pooled model is busy: build one more, off the lock. A local RNG
    // leaves the training stream alone; every parameter is installed and
    // every buffer copied before it scores.
    const models::ModelSpec& spec = *model_->spec();
    Rng rng(spec.config.seed);
    auto replica = models::CreateModel(spec.name, spec.config, &rng);
    MAMDR_CHECK(replica.ok()) << replica.status().ToString();
    auto owned = std::make_unique<PooledModel>();
    owned->owned = std::move(replica).value();
    owned->model = owned->owned.get();
    owned->params = owned->model->Parameters();
    MAMDR_CHECK_EQ(owned->params.size(), params_.size());
    m = owned.get();
    MutexLock lock(&pool_mu_);
    pool_.push_back(std::move(owned));
  }
  if (m->owned != nullptr) m->model->CopyBuffersFrom(*model_);
  return m;
}

void Framework::ReturnModel(PooledModel* m) {
  MutexLock lock(&pool_mu_);
  idle_.push_back(m);
  pool_cv_.NotifyOne();
}

int64_t Framework::scoring_pool_size() const {
  MutexLock lock(&pool_mu_);
  return static_cast<int64_t>(pool_.size());
}

std::vector<double> Framework::Evaluate(metrics::Split split) {
  obs::ContextSpan span("evaluate", "core");
  std::vector<double> aucs = metrics::EvaluateAllDomains(
      *dataset_, split, Scorer(), metrics::EvalParallel::kParallel);
  RecordEval(split, aucs);
  return aucs;
}

void Framework::RecordEval(metrics::Split split,
                           const std::vector<double>& aucs) const {
  obs::TelemetrySink* sink = obs::Sink();
  if (sink == nullptr) return;
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

std::vector<double> Framework::EvaluateTest() {
  return Evaluate(metrics::Split::kTest);
}

double Framework::AverageTestAuc() {
  const auto aucs = EvaluateTest();
  double sum = 0.0;
  for (double a : aucs) sum += a;
  return sum / static_cast<double>(aucs.size());
}

Result<int64_t> TrainPass(models::CtrModel* model, int64_t domain,
                          const std::vector<data::Interaction>& rows,
                          int64_t batch_size, int64_t max_batches,
                          optim::Optimizer* opt, Rng* rng,
                          const PassHooks& hooks, PassTelemetry* telemetry,
                          StepBuffers* buffers) {
  data::Batcher batcher(&rows, batch_size, rng);
  nn::Context ctx{/*training=*/true, rng};
  data::Batch batch;
  int64_t steps = 0;
  while (batcher.Next(&batch)) {
    if (hooks.before_forward) {
      MAMDR_RETURN_IF_ERROR(hooks.before_forward(batch));
    }
    opt->ZeroGrad();
    // Declared before the scope: the graph (and every buffer it holds)
    // dies at the end of the iteration, before the next step reuses them.
    autograd::Var loss;
    {
      StepScope step(buffers);
      loss = model->Loss(batch, domain, ctx);
      loss.Backward();
    }
    if (hooks.after_backward) {
      MAMDR_RETURN_IF_ERROR(hooks.after_backward(batch));
    }
    if (telemetry != nullptr) {
      telemetry->loss_sum += static_cast<double>(loss.value().at(0));
      for (const autograd::Var& p : opt->params()) {
        if (p.has_grad()) {
          telemetry->grad_sq_sum +=
              static_cast<double>(ops::SquaredNorm(p.grad()));
        }
      }
      ++telemetry->batches;
    }
    opt->Step();
    ++steps;
    if (max_batches > 0 && steps >= max_batches) break;
  }
  if (buffers != nullptr) buffers->EndPass();
  return steps;
}

int64_t Framework::TrainDomainPass(int64_t domain, optim::Optimizer* opt,
                                   int64_t max_batches, const PassHooks& hooks,
                                   const std::vector<data::Interaction>* rows) {
  // Accumulate telemetry only when a sink is installed: the per-batch loss
  // read and gradient-norm reduction are pure overhead otherwise.
  const bool telemetry = obs::Sink() != nullptr &&
                         domain < static_cast<int64_t>(epoch_acc_.size());
  const Result<int64_t> batches = TrainPass(
      model_, domain, rows != nullptr ? *rows : dataset_->domain(domain).train,
      config_.batch_size, max_batches, opt, &rng_, hooks,
      telemetry ? &epoch_acc_[static_cast<size_t>(domain)] : nullptr,
      &step_buffers_);
  MAMDR_CHECK(batches.ok()) << batches.status().ToString();
  ++domain_pass_count_;
  batch_step_count_ += batches.value();
  return batches.value();
}

std::vector<int64_t> Framework::ShuffledDomains() {
  std::vector<int64_t> order(static_cast<size_t>(dataset_->num_domains()));
  std::iota(order.begin(), order.end(), int64_t{0});
  rng_.Shuffle(&order);
  return order;
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

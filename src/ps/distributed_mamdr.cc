#include "ps/distributed_mamdr.h"

#include <algorithm>
#include <numeric>

#include "checkpoint/checkpoint.h"
#include "common/logging.h"
#include "metrics/evaluator.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "optim/param_snapshot.h"

namespace mamdr {
namespace ps {

namespace {
// Recovery outcomes are a pure function of the clients' fault schedule
// (kStable); the chaos-telemetry test asserts they match RecoveryStats
// exactly.
struct RecoveryCounters {
  obs::Counter* failed_epochs;
  obs::Counter* respawns;
  obs::Counter* respawn_failures;
  obs::Counter* reassigned_epochs;
  obs::Counter* checkpoint_saves;
  obs::Counter* checkpoint_restores;
};
const RecoveryCounters& recovery_counters() {
  static const RecoveryCounters c{
      obs::Registry::Global().counter("ps.recovery.failed_epochs"),
      obs::Registry::Global().counter("ps.recovery.respawns"),
      obs::Registry::Global().counter("ps.recovery.respawn_failures"),
      obs::Registry::Global().counter("ps.recovery.reassigned_epochs"),
      obs::Registry::Global().counter("ps.checkpoint.saves"),
      obs::Registry::Global().counter("ps.checkpoint.restores"),
  };
  return c;
}
}  // namespace

DistributedMamdr::DistributedMamdr(const models::ModelConfig& model_config,
                                   const data::MultiDomainDataset* dataset,
                                   DistributedConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  MAMDR_CHECK_GT(config_.num_workers, 0);
  // More workers than domains would idle; clamp so worker ids stay dense.
  config_.num_workers =
      std::min<int64_t>(config_.num_workers, dataset_->num_domains());
  // Reference replica defines the layout and initial PS values. All workers
  // use the same seed so every replica starts identical to the PS.
  Rng ref_rng(model_config.seed);
  auto ref = models::CreateModel(config_.model_name, model_config, &ref_rng);
  MAMDR_CHECK(ref.ok()) << ref.status().ToString();
  reference_model_ = std::move(ref).value();
  reference_params_ = reference_model_->Parameters();

  if (!config_.ps_client_factory) {
    std::vector<bool> is_embedding;
    MakeDefaultRowExtractor(reference_model_.get(), model_config,
                            &is_embedding);
    server_ = std::make_unique<ParameterServer>(
        optim::Snapshot(reference_params_), is_embedding);
  }

  // Greedy balance: largest domain to the currently lightest worker.
  owner_.assign(static_cast<size_t>(dataset_->num_domains()), 0);
  std::vector<int64_t> load(static_cast<size_t>(config_.num_workers), 0);
  std::vector<int64_t> domains(static_cast<size_t>(dataset_->num_domains()));
  std::iota(domains.begin(), domains.end(), 0);
  std::sort(domains.begin(), domains.end(), [&](int64_t a, int64_t b) {
    return dataset_->domain(a).train.size() > dataset_->domain(b).train.size();
  });
  std::vector<std::vector<int64_t>> assignment(
      static_cast<size_t>(config_.num_workers));
  for (int64_t d : domains) {
    const size_t w = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[w].push_back(d);
    owner_[static_cast<size_t>(d)] = static_cast<int64_t>(w);
    load[w] += static_cast<int64_t>(dataset_->domain(d).train.size());
  }

  for (int64_t w = 0; w < config_.num_workers; ++w) {
    Rng wrng(model_config.seed);  // identical init across replicas
    auto m = models::CreateModel(config_.model_name, model_config, &wrng);
    MAMDR_CHECK(m.ok()) << m.status().ToString();
    WorkerConfig wc;
    wc.domains = assignment[static_cast<size_t>(w)];
    wc.train = config_.train;
    wc.use_embedding_cache = config_.use_embedding_cache;
    wc.run_dr = config_.run_dr;
    wc.retry = config_.retry;
    RowExtractor wx = MakeDefaultRowExtractor(m.value().get(), model_config,
                                              nullptr);
    // The configured backend: DirectPsClient in-process, or whatever the
    // factory mints (e.g. NetPsClient).
    std::unique_ptr<PsClient> client =
        config_.ps_client_factory
            ? config_.ps_client_factory(w)
            : std::make_unique<DirectPsClient>(server_.get());
    workers_.push_back(std::make_unique<Worker>(w, std::move(m).value(),
                                                std::move(client), dataset_,
                                                wc, std::move(wx)));
  }
  admin_client_ = config_.ps_client_factory
                      ? config_.ps_client_factory(-1)
                      : std::make_unique<DirectPsClient>(server_.get());
  const int64_t auto_threads = std::max<int64_t>(
      1, std::min<int64_t>(
             config_.num_workers,
             static_cast<int64_t>(std::thread::hardware_concurrency()) + 1));
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(
      config_.pool_threads > 0 ? config_.pool_threads : auto_threads));
}

DistributedMamdr::~DistributedMamdr() = default;

Status DistributedMamdr::TrainEpoch() {
  obs::ContextSpan span("distributed_epoch", "mamdr");
  const int64_t epoch = epochs_run_;

  // Each task installs the ambient trace context, which does not cross
  // ThreadPool::Submit by itself, so worker spans join this epoch's tree.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  std::vector<Status> results(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker* wp = workers_[i].get();
    Status* slot = &results[i];
    pool_->Submit([wp, slot, ctx] {
      obs::ScopedTraceContext scoped(ctx);
      *slot = wp->RunDnEpoch();
    });
  }
  pool_->Wait();  // epoch barrier (Parallelized SGD style)

  // Recovery pass: respawn failed workers; reassign domains when the
  // respawn dies too, so the epoch degrades gracefully instead of being
  // lost for those domains.
  const RecoveryCounters& counters = recovery_counters();
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (results[i].ok()) continue;
    ++recovery_.failed_epochs;
    counters.failed_epochs->Add();
    MAMDR_LOG(Warning) << "worker " << i << " failed epoch " << epoch << ": "
                       << results[i].ToString();
    // Respawn: restore the replica from the latest PS state, re-run.
    Status respawned = workers_[i]->RestoreFromPs();
    if (respawned.ok()) respawned = workers_[i]->RunDnEpoch();
    if (respawned.ok()) {
      ++recovery_.respawns;
      counters.respawns->Add();
      continue;
    }
    ++recovery_.respawn_failures;
    counters.respawn_failures->Add();
    MAMDR_LOG(Warning) << "worker " << i << " respawn failed: "
                       << respawned.ToString();
    // Find a worker that completed this epoch to adopt the domains.
    Status adopted = Status::Internal("no surviving worker");
    for (size_t j = 0; j < workers_.size(); ++j) {
      if (j == i || !results[j].ok()) continue;
      adopted = workers_[j]->RunDnEpochOn(workers_[i]->domains());
      break;
    }
    if (!adopted.ok()) return adopted;  // epoch unsalvageable
    ++recovery_.reassigned_epochs;
    counters.reassigned_epochs->Add();
  }
  ++epochs_run_;

  if (config_.run_dr) {
    obs::ContextSpan dr_span("distributed_dr_phase", "mamdr");
    const obs::TraceContext dr_ctx = obs::CurrentTraceContext();
    std::vector<Status> dr_results(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* wp = workers_[i].get();
      Status* slot = &dr_results[i];
      pool_->Submit([wp, slot, dr_ctx] {
        obs::ScopedTraceContext scoped(dr_ctx);
        *slot = wp->RunDrPhase();
      });
    }
    pool_->Wait();
    for (const Status& s : dr_results) MAMDR_RETURN_IF_ERROR(s);
  }

  if (!config_.checkpoint_dir.empty()) {
    MAMDR_RETURN_IF_ERROR(SaveCheckpoint(epochs_run_));
  }
  return Status::OK();
}

Status DistributedMamdr::Train() {
  int64_t start_epoch = 0;
  if (!config_.checkpoint_dir.empty()) {
    auto resumed = RestoreFromCheckpoint();
    if (resumed.ok()) {
      start_epoch = resumed.value();
      MAMDR_LOG(Info) << "resuming from checkpoint at epoch " << start_epoch;
    } else if (resumed.status().code() != StatusCode::kNotFound) {
      // A corrupted checkpoint must never be silently trained on.
      return resumed.status();
    }
  }
  epochs_run_ = start_epoch;

  if (config_.async_epochs) {
    // Barrier-free: each worker runs its full schedule; pulls observe
    // whatever mixture of other workers' pushes the PS holds at that
    // moment. Recovery is worker-side: restore + retry a failed epoch
    // once, then skip it.
    const int64_t epochs = config_.train.epochs - start_epoch;
    const bool run_dr = config_.run_dr;
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    std::vector<Status> results(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* wp = workers_[i].get();
      Status* slot = &results[i];
      pool_->Submit([wp, epochs, run_dr, slot, ctx] {
        obs::ScopedTraceContext scoped(ctx);
        for (int64_t e = 0; e < epochs; ++e) {
          Status s = wp->RunDnEpoch();
          if (!s.ok()) {
            s = wp->RestoreFromPs();
            if (s.ok()) s = wp->RunDnEpoch();
            if (!s.ok()) {
              MAMDR_LOG(Warning) << "worker " << wp->id() << " skipped async "
                                 << "epoch " << e << ": " << s.ToString();
              continue;
            }
          }
          if (run_dr) {
            if (Status dr = wp->RunDrPhase(); !dr.ok()) {
              *slot = dr;
              return;
            }
          }
        }
      });
    }
    pool_->Wait();
    for (const Status& s : results) MAMDR_RETURN_IF_ERROR(s);
    epochs_run_ = config_.train.epochs;
    if (!config_.checkpoint_dir.empty()) {
      MAMDR_RETURN_IF_ERROR(SaveCheckpoint(epochs_run_));
    }
    return Status::OK();
  }

  for (int64_t e = start_epoch; e < config_.train.epochs; ++e) {
    MAMDR_RETURN_IF_ERROR(TrainEpoch());
  }
  return Status::OK();
}

Status DistributedMamdr::SaveCheckpoint(int64_t completed_epochs) {
  obs::ContextSpan span("checkpoint_save", "mamdr");
  MAMDR_CHECK(!config_.checkpoint_dir.empty());
  recovery_counters().checkpoint_saves->Add();
  checkpoint::NamedTensors named;
  named.emplace_back("epoch",
                     Tensor({1}, static_cast<float>(completed_epochs)));
  MAMDR_ASSIGN_OR_RETURN(const auto snapshot, admin_client_->Snapshot());
  checkpoint::AppendPsParams(snapshot, &named);
  return checkpoint::SaveTensors(named, CheckpointPath());
}

Result<int64_t> DistributedMamdr::RestoreFromCheckpoint() {
  MAMDR_ASSIGN_OR_RETURN(const auto named,
                         checkpoint::LoadTensors(CheckpointPath()));
  const auto epoch_it =
      std::find_if(named.begin(), named.end(),
                   [](const auto& entry) { return entry.first == "epoch"; });
  if (epoch_it == named.end() || epoch_it->second.size() != 1) {
    return Status::InvalidArgument("checkpoint missing epoch counter");
  }
  const int64_t epoch = static_cast<int64_t>(epoch_it->second.at(0));
  if (epoch < 0) {
    return Status::InvalidArgument("checkpoint epoch counter is negative");
  }

  // Validate the whole layout before touching the PS: restore is
  // all-or-nothing. The reference replica defines the layout, so this
  // works identically against the in-process and networked backends.
  std::vector<Shape> shapes;
  shapes.reserve(reference_params_.size());
  for (const autograd::Var& p : reference_params_) {
    shapes.push_back(p.value().shape());
  }
  MAMDR_ASSIGN_OR_RETURN(const std::vector<Tensor> restored,
                         checkpoint::ReadPsParams(named, shapes, {"epoch"}));
  MAMDR_RETURN_IF_ERROR(admin_client_->Restore(restored));
  recovery_counters().checkpoint_restores->Add();
  epochs_run_ = epoch;
  return epoch;
}

std::vector<double> DistributedMamdr::EvaluateTest() {
  metrics::ScoreFn score;
  if (config_.run_dr) {
    // With DR every score comes from the owner worker's composite
    // θS + θd, so the PS is not read at all.
    score = [this](const data::Batch& batch, int64_t d) {
      Worker* owner = workers_[static_cast<size_t>(OwnerOf(d))].get();
      owner->specific_store()->InstallComposite(d);
      return owner->model()->Score(batch, d);
    };
  } else {
    // Without DR: score with the PS parameters through the reference
    // replica.
    auto snapshot = admin_client_->Snapshot();
    MAMDR_CHECK(snapshot.ok()) << snapshot.status().ToString();
    optim::Restore(reference_params_, snapshot.value());
    score = [this](const data::Batch& batch, int64_t d) {
      return reference_model_->Score(batch, d);
    };
  }
  // Serial: domains with the same owner install into one shared replica.
  return metrics::EvaluateAllDomains(*dataset_, metrics::Split::kTest, score,
                                     metrics::EvalParallel::kSerial);
}

double DistributedMamdr::AverageTestAuc() {
  const auto aucs = EvaluateTest();
  double sum = 0.0;
  for (double a : aucs) sum += a;
  return sum / static_cast<double>(aucs.size());
}

}  // namespace ps
}  // namespace mamdr

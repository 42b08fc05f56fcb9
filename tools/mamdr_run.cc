// mamdr_run: the experiment driver CLI.
//
// Examples:
//   mamdr_run --dataset taobao10 --model MLP --framework MAMDR --epochs 10
//   mamdr_run --dataset amazon13 --scale 0.5 --model STAR --framework DN
//   mamdr_run --dataset taobao10 --framework MAMDR --save-model m.ckpt
//             --save-dataset ./data_out --topk-eval
//   mamdr_run --load-dataset ./data_out --framework Alternate
//   mamdr_run --list
#include <cmath>
#include <cstdio>
#include <string>

#include "checkpoint/checkpoint.h"
#include "core/early_stopper.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/framework_registry.h"
#include "data/io.h"
#include "metrics/gauc.h"
#include "metrics/logloss.h"
#include "obs/telemetry.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "models/registry.h"
#include "serve/metrics_server.h"
#include "serve/recommender.h"

using namespace mamdr;

namespace {

void PrintUsage(const char* prog) {
  std::printf(
      "usage: %s [flags]\n"
      "  --dataset NAME     amazon6|amazon13|taobao10|taobao20|taobao30|"
      "industry (default taobao10)\n"
      "  --scale X          dataset scale multiplier (default 1.0)\n"
      "  --data-seed N      dataset generation seed (default 17)\n"
      "  --load-dataset DIR load a CSV dataset instead of generating\n"
      "  --save-dataset DIR save the dataset as CSV\n"
      "  --model NAME       model structure (default MLP); --list to see\n"
      "  --framework NAME   learning framework (default MAMDR)\n"
      "  --epochs N         training epochs (default 10)\n"
      "  --batch-size N     mini-batch size (default 256)\n"
      "  --inner-lr X       alpha (default 1e-3)\n"
      "  --outer-lr X       beta (default 0.5)\n"
      "  --dr-lr X          gamma (default 0.5)\n"
      "  --k N              DR sample count (default 5)\n"
      "  --inner-opt NAME   adam|sgd|adagrad (default adam)\n"
      "  --seed N           model/training seed (default 7)\n"
      "  --patience N       stop when val AUC stalls for N epochs "
      "(0 = off)\n"
      "  --kernel-threads N evaluation fan-out width: each evaluation runs "
      "its domains on a pool of min(N, domains) threads built for that "
      "call (0 = hardware_concurrency, 1 = serial)\n"
      "  --metrics-out PATH write deterministic metrics/telemetry JSON "
      "(schema mamdr.metrics.v1) at exit\n"
      "  --metrics-port N   serve live /metrics (Prometheus text) and "
      "/healthz on 127.0.0.1:N while running (0 = off, default)\n"
      "  --trace-out PATH   write chrome://tracing span JSON at exit\n"
      "  --probe-conflict   record per-epoch cross-domain gradient conflict "
      "(needs --metrics-out)\n"
      "  --save-model PATH  write a parameter checkpoint after training\n"
      "  --topk-eval        also report HitRate@10 / NDCG@10 per domain\n"
      "  --stats            print dataset statistics before training\n"
      "  --list             list models and frameworks, then exit\n",
      prog);
}

Result<data::MultiDomainDataset> BuildDataset(const FlagParser& flags,
                                              double scale) {
  if (flags.Has("load-dataset")) {
    return data::LoadCsv(flags.GetString("load-dataset", ""));
  }
  const std::string name = flags.GetString("dataset", "taobao10");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("data-seed", 17));
  data::SyntheticConfig config;
  if (name == "amazon6") {
    config = data::Amazon6Like(scale, seed);
  } else if (name == "amazon13") {
    config = data::Amazon13Like(scale, seed);
  } else if (name == "taobao10") {
    config = data::TaobaoLike(10, scale, seed);
  } else if (name == "taobao20") {
    config = data::TaobaoLike(20, scale, seed);
  } else if (name == "taobao30") {
    config = data::TaobaoLike(30, scale, seed);
  } else if (name == "industry") {
    config = data::IndustryLike(48, scale, seed);
  } else {
    return Status::InvalidArgument("unknown dataset '" + name + "'");
  }
  return data::Generate(config);
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    PrintUsage(argv[0]);
    return 2;
  }
  FlagParser flags = std::move(parsed).value();
  if (flags.GetBool("help", false)) {
    PrintUsage(argv[0]);
    return 0;
  }
  if (Status s = ApplyGlobalFlags(flags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("list", false)) {
    std::printf("models:     %s\n",
                Join(models::KnownModels(), ", ").c_str());
    std::printf("frameworks: %s\n",
                Join(core::KnownFrameworks(), ", ").c_str());
    return 0;
  }

  const auto reject = [](const std::string& message) {
    std::fprintf(stderr, "%s\n",
                 Status::InvalidArgument(message).ToString().c_str());
    return 2;
  };
  const double scale = flags.GetDouble("scale", 1.0);
  if (!std::isfinite(scale) || scale <= 0.0) {
    return reject("--scale must be finite and > 0, got " +
                  flags.GetString("scale", ""));
  }
  const int64_t patience = flags.GetInt("patience", 0);
  if (patience < 0) {
    return reject("--patience must be >= 0, got " + std::to_string(patience));
  }

  auto ds_result = BuildDataset(flags, scale);
  if (!ds_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 ds_result.status().ToString().c_str());
    return 1;
  }
  data::MultiDomainDataset ds = std::move(ds_result).value();
  if (flags.GetBool("stats", false)) {
    std::printf("%s\n", data::FormatStats(data::ComputeStats(ds)).c_str());
  }
  if (flags.Has("save-dataset")) {
    Status s = data::SaveCsv(ds, flags.GetString("save-dataset", ""));
    if (!s.ok()) {
      std::fprintf(stderr, "save-dataset: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  models::ModelConfig mc;
  mc.num_users = ds.num_users();
  mc.num_items = ds.num_items();
  mc.num_domains = ds.num_domains();
  mc.embedding_dim = 16;
  mc.hidden = {64, 32};
  mc.expert_hidden = {64};
  mc.tower_hidden = {16};
  mc.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  core::TrainConfig tc;
  tc.epochs = flags.GetInt("epochs", 10);
  tc.batch_size = flags.GetInt("batch-size", 256);
  tc.inner_lr = static_cast<float>(flags.GetDouble("inner-lr", 1e-3));
  tc.outer_lr = static_cast<float>(flags.GetDouble("outer-lr", 0.5));
  tc.dr_lr = static_cast<float>(flags.GetDouble("dr-lr", 0.5));
  tc.dr_sample_k = flags.GetInt("k", 5);
  tc.inner_optimizer = flags.GetString("inner-opt", "adam");
  tc.seed = mc.seed + 1;
  if (Status s = tc.Validate(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }

  const std::string model_name = flags.GetString("model", "MLP");
  const std::string fw_name = flags.GetString("framework", "MAMDR");
  const bool topk_eval = flags.GetBool("topk-eval", false);
  const std::string save_model = flags.GetString("save-model", "");
  auto metrics_port = flags.GetIntChecked("metrics-port", 0);
  if (!metrics_port.ok()) {
    std::fprintf(stderr, "%s\n", metrics_port.status().ToString().c_str());
    return 2;
  }

  const auto unknown = flags.Unrecognized();
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flags: %s\n", Join(unknown, ", ").c_str());
    PrintUsage(argv[0]);
    return 2;
  }

  serve::MetricsServer metrics_server;
  if (metrics_port.value() > 0) {
    Status s = metrics_server.Start(static_cast<int>(metrics_port.value()));
    if (!s.ok()) {
      std::fprintf(stderr, "metrics-port: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics endpoint: http://127.0.0.1:%d/metrics\n",
                metrics_server.port());
  }

  Rng rng(mc.seed);
  auto model_result = models::CreateModel(model_name, mc, &rng);
  if (!model_result.ok()) {
    std::fprintf(stderr, "model: %s\n",
                 model_result.status().ToString().c_str());
    return 1;
  }
  auto model = std::move(model_result).value();
  auto fw_result = core::CreateFramework(fw_name, model.get(), &ds, tc);
  if (!fw_result.ok()) {
    std::fprintf(stderr, "framework: %s\n",
                 fw_result.status().ToString().c_str());
    return 1;
  }
  auto fw = std::move(fw_result).value();

  std::printf("training %s + %s on %s (%lld domains, %lld train samples)\n",
              model_name.c_str(), fw_name.c_str(), ds.name().c_str(),
              static_cast<long long>(ds.num_domains()),
              static_cast<long long>(ds.TotalTrain()));
  core::EarlyStopper stopper(patience > 0 ? patience : tc.epochs);
  for (int64_t e = 1; e <= tc.epochs; ++e) {
    fw->TrainEpoch();
    const auto val = fw->Evaluate(metrics::Split::kVal);
    double avg_val = 0;
    for (double a : val) avg_val += a;
    avg_val /= static_cast<double>(val.size());
    std::printf("epoch %3lld/%lld  val AUC %.4f  test AUC %.4f\n",
                static_cast<long long>(e),
                static_cast<long long>(tc.epochs), avg_val,
                fw->AverageTestAuc());
    stopper.Observe(avg_val, *model);
    if (patience > 0 && stopper.ShouldStop()) {
      std::printf("early stop: no val improvement for %lld epochs "
                  "(best epoch %lld, val %.4f)\n",
                  static_cast<long long>(patience),
                  static_cast<long long>(stopper.best_epoch()),
                  stopper.best_metric());
      break;
    }
  }

  std::printf("\nper-domain test AUC / LogLoss:\n");
  const auto aucs = fw->EvaluateTest();
  auto scorer = fw->Scorer();
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    data::Batch test_batch = data::Batcher::All(ds.domain(d).test);
    const auto domain_scores = scorer(test_batch, d);
    const double ll = metrics::LogLoss(domain_scores, test_batch.labels);
    const double gauc =
        metrics::GAuc(test_batch.users, domain_scores, test_batch.labels);
    std::printf("  %-28s auc %.4f  gauc %.4f  logloss %.4f\n",
                ds.domain(d).name.c_str(), aucs[static_cast<size_t>(d)],
                gauc, ll);
  }

  if (topk_eval) {
    std::printf("\ntop-K evaluation (HitRate@10 / NDCG@10, 50 negatives):\n");
    serve::Recommender rec(model.get(), fw->Scorer());
    Rng eval_rng(99);
    for (int64_t d = 0; d < ds.num_domains(); ++d) {
      const auto report =
          serve::EvaluateTopK(rec, ds, d, 10, 50, &eval_rng);
      std::printf("  %-28s hit %.4f  ndcg %.4f  (%lld cases)\n",
                  ds.domain(d).name.c_str(), report.hit_rate, report.ndcg,
                  static_cast<long long>(report.num_cases));
    }
  }

  if (!save_model.empty()) {
    Status s = checkpoint::SaveModule(*model, save_model);
    if (!s.ok()) {
      std::fprintf(stderr, "save-model: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nmodel checkpoint written to %s\n", save_model.c_str());
  }

  if (std::string obs_error; !obs::WriteConfiguredOutputs(&obs_error)) {
    std::fprintf(stderr, "observability output: %s\n", obs_error.c_str());
    return 1;
  }
  metrics_server.Stop();
  return 0;
}

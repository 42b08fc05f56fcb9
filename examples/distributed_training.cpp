// Scenario: distributed training on the PS-Worker architecture (§IV-E),
// run against the *networked* parameter server with end-to-end tracing.
//
// Spins up a 4-shard ShardGroup on loopback, points every worker's
// NetPsClient at it, trains MAMDR (DN on shared parameters + per-worker DR
// for owned domains), and records the whole run as a distributed trace:
// the trainer process writes traces/trainer.trace.json, every shard writes
// its own traces/shard-<i>.trace.json, and
//
//   python3 tools/mamdr_tracemerge.py --align ping -o traces/merged.trace.json traces/*.trace.json
//
// stitches them into one chrome://tracing timeline where each cross-shard
// fan-out's client span links to the four server handler spans it
// caused. Each shard also serves live Prometheus text on its own
// 127.0.0.1:<port>/metrics while the run is going.
//
//   ./build/examples/distributed_training
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "common/logging.h"
#include "common/random.h"
#include "models/registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optim/param_snapshot.h"
#include "ps/distributed_mamdr.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_group.h"
#include "ps/worker.h"

using namespace mamdr;

int main() {
  auto ds_result = data::Generate(data::TaobaoLike(20, 1.0, 11));
  if (!ds_result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 ds_result.status().ToString().c_str());
    return 1;
  }
  auto ds = std::move(ds_result).value();

  models::ModelConfig mc;
  mc.num_users = ds.num_users();
  mc.num_items = ds.num_items();
  mc.num_domains = ds.num_domains();
  mc.embedding_dim = 16;
  mc.hidden = {64, 32};

  // The shard layout and initial values must match what DistributedMamdr
  // derives from its reference replica — same model, same seed.
  Rng rng(mc.seed);
  auto model = models::CreateModel("MLP", mc, &rng);
  MAMDR_CHECK(model.ok()) << model.status().ToString();
  std::vector<bool> is_embedding;
  ps::MakeDefaultRowExtractor(model.value().get(), mc, &is_embedding);
  std::vector<Tensor> layout = optim::Snapshot(model.value()->Parameters());

  // 4 shards on loopback, each a logical process: its own trace file, its
  // own /metrics endpoint (ephemeral ports, printed below).
  std::filesystem::create_directories("traces");
  ps::net::ShardGroupConfig gc;
  gc.num_shards = 4;
  gc.trace_dir = "traces";
  gc.metrics_base_port = 0;
  ps::net::ShardGroup group(gc, layout, is_embedding);
  MAMDR_CHECK(group.Start().ok());
  for (int s = 0; s < gc.num_shards; ++s) {
    std::printf("shard %d: rpc port %d, /metrics on 127.0.0.1:%d\n", s,
                group.port(s), group.shard_for_test(s)->metrics_port());
  }

  obs::TraceRecorder::Global().SetProcess(1, "trainer");
  obs::StartTracing();  // every RPC from here on carries a trace context

  ps::DistributedConfig dc;
  dc.num_workers = 4;
  dc.model_name = "MLP";
  dc.use_embedding_cache = true;
  dc.run_dr = true;  // per-worker Domain Regularization for owned domains
  dc.train.epochs = 4;
  dc.train.batch_size = 256;
  dc.train.outer_lr = 0.5f;
  dc.train.dr_sample_k = 3;
  dc.train.dr_max_batches = 2;
  dc.ps_client_factory = [&group, &layout, &is_embedding](
                             int64_t) -> std::unique_ptr<ps::PsClient> {
    ps::net::NetPsClientConfig cc;
    cc.num_shards = 4;
    return std::make_unique<ps::net::NetPsClient>(cc, group.directory(),
                                                  layout, is_embedding);
  };

  ps::DistributedMamdr dist(mc, &ds, dc);
  std::printf("domains -> workers: ");
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    std::printf("%lld->W%lld ", static_cast<long long>(d),
                static_cast<long long>(dist.OwnerOf(d)));
  }
  std::printf("\n\n");

  // A few pings give mamdr_tracemerge.py --align ping the matched client/
  // server span pairs it estimates per-shard clock offsets from.
  {
    ps::net::NetPsClientConfig cc;
    cc.num_shards = 4;
    ps::net::NetPsClient pinger(cc, group.directory(), layout, is_embedding);
    for (int round = 0; round < 3; ++round) {
      for (int s = 0; s < 4; ++s) MAMDR_CHECK(pinger.Ping(s).ok());
    }
  }

  for (int64_t e = 1; e <= dc.train.epochs; ++e) {
    MAMDR_CHECK(dist.TrainEpoch().ok());
    std::printf("epoch %2lld  avg test AUC = %.4f\n",
                static_cast<long long>(e), dist.AverageTestAuc());
  }

  obs::StopTracing();
  std::string error;
  MAMDR_CHECK(obs::WriteFile("traces/trainer.trace.json",
                             obs::TraceRecorder::Global().Json() + "\n",
                             &error))
      << error;
  group.Stop();  // flushes traces/shard-<i>.trace.json

  std::printf(
      "\nwrote traces/trainer.trace.json + 4 shard traces; merge with\n"
      "  python3 tools/mamdr_tracemerge.py --align ping \\\n"
      "      -o traces/merged.trace.json traces/*.trace.json\n"
      "and open the result in chrome://tracing or https://ui.perfetto.dev\n");
  return 0;
}

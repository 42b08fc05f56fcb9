// §IV-E scalability: the PS-Worker simulation and the embedding cache
// (Figs. 6 & 7).
//
// Compares PS traffic (rows/bytes pulled and pushed, push ops) with the
// static+dynamic embedding cache enabled vs the synchronous no-cache
// baseline, across worker counts, and reports the resulting model quality.
// Expected shape: the cache cuts pulled rows by the within-epoch re-touch
// factor and collapses per-step pushes into one sparse push per epoch —
// orders of magnitude fewer push ops — with no loss of AUC.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "ps/distributed_mamdr.h"

using namespace mamdr;

int main() {
  bench::PrintHeader("PS-Worker embedding cache: traffic and quality");

  auto result = data::Generate(data::TaobaoLike(20, 1.0, 17));
  MAMDR_CHECK(result.ok()) << result.status().ToString();
  const auto& ds = result.value();
  const auto mc = bench::BenchModelConfig(ds);

  std::printf("%-8s %-7s %-6s %12s %12s %10s %10s %8s\n", "workers",
              "cache", "mode", "rows_pulled", "rows_pushed", "pull_ops",
              "push_ops", "AUC");
  for (int64_t workers : {1, 2, 4}) {
    for (bool cache : {true, false}) {
      for (bool async : {false, true}) {
        if (async && (!cache || workers == 1)) continue;  // async needs >1
        ps::DistributedConfig dc;
        dc.num_workers = workers;
        dc.use_embedding_cache = cache;
        dc.async_epochs = async;
        dc.model_name = "MLP";
        dc.train = bench::BenchTrainConfig(/*epochs=*/4, 3);
        ps::DistributedMamdr dist(mc, &ds, dc);
        MAMDR_CHECK(dist.Train().ok());
        const auto stats = dist.server()->stats();
        std::printf("%-8lld %-7s %-6s %12llu %12llu %10llu %10llu %8.4f\n",
                    static_cast<long long>(workers), cache ? "on" : "off",
                    async ? "async" : "sync",
                    static_cast<unsigned long long>(stats.rows_pulled),
                    static_cast<unsigned long long>(stats.rows_pushed),
                    static_cast<unsigned long long>(stats.pull_ops),
                    static_cast<unsigned long long>(stats.push_ops),
                    dist.AverageTestAuc());
        std::fflush(stdout);
      }
    }
  }

  // Cache hit-rate detail for the single-worker run.
  {
    ps::DistributedConfig dc;
    dc.num_workers = 1;
    dc.use_embedding_cache = true;
    dc.model_name = "MLP";
    dc.train = bench::BenchTrainConfig(/*epochs=*/4, 3);
    ps::DistributedMamdr dist(mc, &ds, dc);
    MAMDR_CHECK(dist.Train().ok());
    uint64_t hits = 0, misses = 0;
    const ps::PsLayout& layout = dist.server()->layout();
    for (int64_t p = 0; p < layout.num_params(); ++p) {
      if (!layout.is_embedding(p)) continue;
      hits += dist.worker(0)->cache(p).stats().hits;
      misses += dist.worker(0)->cache(p).stats().misses;
    }
    std::printf("\ndynamic-cache hit rate (1 worker, 6 epochs): %.1f%% "
                "(%llu hits / %llu misses)\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  }
  return 0;
}

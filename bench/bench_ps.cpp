// bench_ps: parameter-server op round trips, direct vs networked.
//
// Measures the four PS ops every training step issues — dense pull/push and
// sparse embedding-row pull/push — against three backends sharing one
// parameter layout:
//
//   direct    DirectPsClient -> in-process ParameterServer (the lower
//             bound: one mutex and a memcpy, no serialization)
//   net1      NetPsClient -> 1-shard ShardGroup over loopback TCP: framing,
//             CRC, and one pooled persistent connection reused across ops
//   net4      4-shard ShardGroup (the production configuration; fan-out:
//             a dense op is one pipelined RPC per shard, a row op hits only
//             the owners)
//
// Reported per (backend, op): mean round-trip microseconds (`rtt_us`,
// lower-better for perfdiff) and throughput (`qps`: rows/s for the row
// ops, ops/s for the dense ops — higher-better). Everything is
// fixed-seed, faults off, so the numbers track serialization + socket
// cost, not chaos. Results go to stdout and a machine-readable
// BENCH_ps.json that tools/mamdr_perfdiff.py diffs against
// bench/baselines/BENCH_ps.json in CI.
//
// Flags:
//   --iters N  timed iterations per (backend, op) entry (default 200)
//   --rows N   embedding rows touched per sparse op (default 64)
//   --out PATH JSON output path (default BENCH_ps.json)
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/random.h"
#include "obs/clock.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_group.h"
#include "ps/parameter_server.h"
#include "ps/ps_client.h"

using namespace mamdr;

namespace {

constexpr int64_t kEmbRows = 20000;
constexpr int64_t kEmbDim = 16;

struct Entry {
  std::string backend;
  std::string op;
  int64_t iters;
  int64_t rows;  // rows per sparse op; 0 for dense ops
  double rtt_us;
  double qps;
};

/// The shared layout: two dense tensors (a layer and its bias) plus one
/// embedding table, deterministically filled.
std::vector<Tensor> MakeLayout() {
  std::vector<Tensor> params{Tensor({128, 64}), Tensor({64}),
                             Tensor({kEmbRows, kEmbDim})};
  Rng rng(99);
  for (Tensor& p : params) {
    for (int64_t i = 0; i < p.size(); ++i) {
      p.data()[i] = static_cast<float>(rng.Uniform(-0.1, 0.1));
    }
  }
  return params;
}

std::vector<bool> IsEmbedding() { return {false, false, true}; }

/// `rows`-many deterministic row indices (with repeats, like a batch).
std::vector<int64_t> MakeRows(int64_t rows) {
  std::vector<int64_t> out;
  Rng rng(7);
  out.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    out.push_back(
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(kEmbRows))));
  }
  return out;
}

/// Runs the four-op suite against `client` and appends one Entry per op.
void BenchClient(ps::PsClient* client, const std::string& backend,
                 int64_t iters, int64_t rows_per_op,
                 std::vector<Entry>* entries) {
  const std::vector<Tensor> layout = MakeLayout();
  std::vector<Tensor> dense_out{Tensor({128, 64}), Tensor({64}), Tensor()};
  std::vector<Tensor> dense_delta{Tensor({128, 64}, 0.001f),
                                  Tensor({64}, 0.001f), Tensor()};
  Tensor table({kEmbRows, kEmbDim});
  Tensor row_delta({kEmbRows, kEmbDim});  // zeros; only touched rows matter
  const std::vector<int64_t> rows = MakeRows(rows_per_op);

  struct Op {
    const char* name;
    int64_t rows;  // per iteration
    std::function<void()> run;
  };
  const std::vector<Op> ops = {
      {"pull_dense", 0,
       [&] { MAMDR_CHECK(client->PullDense(&dense_out).ok()); }},
      {"push_dense", 0,
       [&] { MAMDR_CHECK(client->PushDenseDelta(dense_delta, 0.1f).ok()); }},
      {"pull_rows", rows_per_op,
       [&] { MAMDR_CHECK(client->PullRows(2, rows, &table).ok()); }},
      {"push_rows", rows_per_op,
       [&] {
         MAMDR_CHECK(client->PushRowDeltas(2, rows, row_delta, 0.1f).ok());
       }},
  };

  for (const Op& op : ops) {
    op.run();  // warmup: metric registration, first connect, page-in
    const int64_t t0 = obs::MonotonicMicros();
    for (int64_t i = 0; i < iters; ++i) op.run();
    const int64_t us = obs::MonotonicMicros() - t0;
    Entry e;
    e.backend = backend;
    e.op = op.name;
    e.iters = iters;
    e.rows = op.rows;
    e.rtt_us = static_cast<double>(us) / static_cast<double>(iters);
    const double per_iter = op.rows > 0 ? static_cast<double>(op.rows) : 1.0;
    e.qps = us > 0 ? per_iter * static_cast<double>(iters) * 1e6 /
                         static_cast<double>(us)
                   : 0.0;
    entries->push_back(e);
    std::printf("  %-7s %-11s rtt %9.1f us   %12.0f %s\n", backend.c_str(),
                op.name, e.rtt_us, e.qps, op.rows > 0 ? "rows/s" : "ops/s");
    std::fflush(stdout);
  }
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ps\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"op\": \"%s\", \"iters\": "
                 "%" PRId64 ", \"rows\": %" PRId64
                 ", \"rtt_us\": %.2f, \"qps\": %.1f}%s\n",
                 e.backend.c_str(), e.op.c_str(), e.iters, e.rows, e.rtt_us,
                 e.qps, i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  FlagParser flags = std::move(parsed).value();
  if (Status s = ApplyGlobalFlags(flags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  const int64_t iters = flags.GetInt("iters", 200);
  const int64_t rows = flags.GetInt("rows", 64);
  const std::string out = flags.GetString("out", "BENCH_ps.json");

  std::printf("=== ps bench (%" PRId64 " iters/op, %" PRId64
              " rows/sparse op, emb %" PRId64 "x%" PRId64 ") ===\n\n",
              iters, rows, kEmbRows, kEmbDim);

  std::vector<Entry> entries;

  {
    ps::ParameterServer server(MakeLayout(), IsEmbedding());
    ps::DirectPsClient client(&server);
    BenchClient(&client, "direct", iters, rows, &entries);
  }

  for (const int num_shards : {1, 4}) {
    ps::net::ShardGroupConfig gc;
    gc.num_shards = num_shards;
    ps::net::ShardGroup group(gc, MakeLayout(), IsEmbedding());
    MAMDR_CHECK(group.Start().ok());
    ps::net::NetPsClientConfig cc;
    cc.num_shards = num_shards;
    ps::net::NetPsClient client(cc, group.directory(), MakeLayout(),
                                IsEmbedding());
    BenchClient(&client, "net" + std::to_string(num_shards), iters, rows,
                &entries);
  }

  WriteJson(out, entries);
  return 0;
}

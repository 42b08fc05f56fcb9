// bench_kernels: throughput of the tensor kernel layer.
//
// For representative CTR shapes (batch x embed-concat x hidden) it reports
// GFLOP/s of two MatMul variants:
//   serial    — the growth seed's unblocked kernel (ops::MatMulNaive), the
//               trajectory baseline;
//   blocked   — the cache-blocked kernel (ops::MatMul).
// Plus the blocked transposed variants, an elementwise bandwidth probe, three
// autograd layers at CTR shapes (relu, concat_cols, an embedding gather with
// its scatter-add backward), each timed as one forward plus one
// backward-closure call, one Adam step, one Snapshot + Restore and one
// MetaInterpolate (Eq. 3) over the parameters of the MLP model mamdr_run
// trains on Amazon13Like, and one whole training step (forward, backward,
// Adam) of mamdr_run's MLP on Taobao10Like and Amazon13Like batches of 256,
// run the way core::TrainPass runs it: once on reused step buffers, once
// allocating every tensor. The train_step rows also report tensor storage
// allocations and minor page faults (getrusage) per step.
// Every kernel runs on the calling thread: kernels are serial by design
// (parallelism lives in independent units, see common/parallel_for.h).
// Results go to stdout and to a machine-readable BENCH_kernels.json so
// later changes can track the trajectory. Both record the SIMD level the
// kernels dispatched to (`simd_level`: scalar, avx2 or avx512), since the
// same source runs a different matmul body on a CPU without AVX-512.
//
// Flags:
//   --repeats N   timing repetitions per variant (default 5, best-of)
//   --out PATH    JSON output path (default BENCH_kernels.json)
// Plus the global observability flags (--metrics-out/--trace-out), so a
// bench run can emit spans alongside its JSON.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "common/flags.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "models/registry.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "optim/adam.h"
#include "optim/param_snapshot.h"
#include "tensor/simd.h"
#include "tensor/step_buffers.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

using namespace mamdr;

namespace {

struct Entry {
  std::string kernel;
  std::string variant;
  int64_t m, k, n;
  double ms;
  double gflops;
};

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t({rows, cols});
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

/// Best-of-N wall time in seconds per call, timing `calls` back-to-back
/// calls per repetition (one untimed warmup call).
double TimeBest(const std::function<void()>& fn, int repeats, int calls = 1) {
  fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = obs::MonotonicSeconds();
    for (int c = 0; c < calls; ++c) fn();
    const double s = (obs::MonotonicSeconds() - t0) / calls;
    if (s < best) best = s;
  }
  return best;
}

Entry Measure(const std::string& kernel, const std::string& variant,
              int64_t m, int64_t k, int64_t n, int repeats,
              const std::function<void()>& fn, int calls = 1) {
  const double secs = TimeBest(fn, repeats, calls);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  Entry e{kernel, variant, m, k, n, secs * 1e3, flops / secs / 1e9};
  std::printf("  %-14s %-9s %5" PRId64 " x %4" PRId64 " x %4" PRId64
              "  %8.3f ms  %7.2f GFLOP/s\n",
              e.kernel.c_str(), e.variant.c_str(), m, k, n, e.ms, e.gflops);
  return e;
}

/// Allocation and page-fault counts of one train_step variant.
struct StepCost {
  std::string dataset, variant;
  double allocations_per_step, minor_faults_per_step;
};

int64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// The MLP mamdr_run trains (embedding 16, hidden {64, 32}) on `config`'s
/// dataset, stepped on one batch of `batch` rows of domain 0: ZeroGrad,
/// Loss and Backward in a StepScope on `buffers` (null: no reuse), then an
/// Adam step. Appends the step's time and cost.
bool MeasureTrainStep(const std::string& dataset,
                      const data::SyntheticConfig& config, int64_t batch,
                      int repeats, std::vector<Entry>* entries,
                      std::vector<StepCost>* costs) {
  auto ds = data::Generate(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", ds.status().ToString().c_str());
    return false;
  }
  models::ModelConfig mc;
  mc.num_users = ds.value().num_users();
  mc.num_items = ds.value().num_items();
  mc.num_domains = ds.value().num_domains();
  mc.embedding_dim = 16;
  mc.hidden = {64, 32};
  Rng data_rng(3);
  const data::Batch rows =
      data::Batcher::Sample(ds.value().domain(0).train, batch, &data_rng);
  // Forward + backward of the dense layers: 2 FLOPs per multiply-add, three
  // products per layer (forward, dX, dW).
  int64_t flops = 0;
  int64_t in = 4 * mc.embedding_dim;
  for (int64_t h : {mc.hidden[0], mc.hidden[1], int64_t{1}}) {
    flops += 6 * rows.size() * in * h;
    in = h;
  }
  for (bool reuse : {true, false}) {
    Rng model_rng(mc.seed);
    auto model = models::CreateModel("MLP", mc, &model_rng);
    if (!model.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", model.status().ToString().c_str());
      return false;
    }
    models::CtrModel* m = model.value().get();
    optim::Adam adam(m->Parameters(), 1e-3f);
    StepBuffers buffers;
    Rng dropout_rng(5);
    const nn::Context ctx{/*training=*/true, &dropout_rng};
    auto step = [&] {
      adam.ZeroGrad();
      autograd::Var loss;
      {
        StepScope scope(reuse ? &buffers : nullptr);
        loss = m->Loss(rows, 0, ctx);
        loss.Backward();
      }
      adam.Step();
    };
    constexpr int kCalls = 50;
    const double secs = TimeBest(step, repeats, kCalls);
    const int64_t allocations = ThreadTensorAllocations();
    const int64_t faults = MinorFaults();
    for (int c = 0; c < kCalls; ++c) step();
    const std::string variant = reuse ? "reused" : "fresh";
    const StepCost cost{
        dataset, variant,
        static_cast<double>(ThreadTensorAllocations() - allocations) / kCalls,
        static_cast<double>(MinorFaults() - faults) / kCalls};
    Entry e{"train_step_" + dataset, variant, rows.size(), 4 * mc.embedding_dim,
            mc.hidden[0], secs * 1e3, static_cast<double>(flops) / secs / 1e9};
    std::printf("  %-22s %-7s B=%" PRId64 "  %8.3f ms  %7.2f GFLOP/s  "
                "%5.1f allocs/step  %7.1f minflt/step\n",
                e.kernel.c_str(), e.variant.c_str(), e.m, e.ms, e.gflops,
                cost.allocations_per_step, cost.minor_faults_per_step);
    entries->push_back(e);
    costs->push_back(cost);
  }
  return true;
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries,
               const std::vector<StepCost>& costs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               ops::simd::LevelName(ops::simd::ActiveLevel()));
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                 "\"m\": %" PRId64 ", \"k\": %" PRId64 ", \"n\": %" PRId64
                 ", \"ms\": %.4f, \"gflops\": %.4f}%s\n",
                 e.kernel.c_str(), e.variant.c_str(), e.m, e.k, e.n, e.ms,
                 e.gflops, i + 1 == entries.size() ? "" : ",");
  }
  // Where the measured time went, per kernel.variant summed over shapes —
  // the timing breakdown consumers diff across PRs.
  std::map<std::string, double> breakdown;
  for (const Entry& e : entries) breakdown[e.kernel + "." + e.variant] += e.ms;
  std::fprintf(f, "  ],\n  \"timing_breakdown_ms\": {\n");
  size_t written = 0;
  for (const auto& [label, ms] : breakdown) {
    std::fprintf(f, "    \"%s\": %.4f%s\n", label.c_str(), ms,
                 ++written == breakdown.size() ? "" : ",");
  }
  // Per-step costs of the train_step rows; kept out of `entries`, whose
  // non-metric fields identify an entry for mamdr_perfdiff.
  std::fprintf(f, "  },\n  \"train_step_costs\": [\n");
  for (size_t i = 0; i < costs.size(); ++i) {
    const StepCost& c = costs[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"variant\": \"%s\", "
                 "\"allocations_per_step\": %.2f, "
                 "\"minor_faults_per_step\": %.2f}%s\n",
                 c.dataset.c_str(), c.variant.c_str(), c.allocations_per_step,
                 c.minor_faults_per_step, i + 1 == costs.size() ? "" : ",");
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
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const std::string out = flags.GetString("out", "BENCH_kernels.json");
  std::printf("=== kernel bench (serial kernels, hw=%u, simd=%s) ===\n\n",
              std::thread::hardware_concurrency(),
              ops::simd::LevelName(ops::simd::ActiveLevel()));

  // Representative CTR shapes: batch x concatenated-embedding x hidden for
  // the MLP towers, plus the paper-scale acceptance shape 512x256x256.
  const std::vector<std::vector<int64_t>> shapes = {
      {256, 32, 64}, {256, 64, 32}, {512, 256, 256},
      {1024, 128, 128}, {2048, 64, 256}};

  Rng rng(42);
  std::vector<Entry> entries;
  double serial_512 = 0.0, blocked_512 = 0.0;
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    Tensor a = RandomTensor(m, k, &rng);
    Tensor b = RandomTensor(k, n, &rng);
    Tensor at = ops::Transpose(a);  // [k, m] for MatMulTransA
    Tensor bt = ops::Transpose(b);  // [n, k] for MatMulTransB

    entries.push_back(Measure("matmul", "serial", m, k, n, repeats,
                              [&] { ops::MatMulNaive(a, b); }));
    entries.push_back(Measure("matmul", "blocked", m, k, n, repeats,
                              [&] { ops::MatMul(a, b); }));
    entries.push_back(Measure("matmul_ta", "blocked", m, k, n, repeats,
                              [&] { ops::MatMulTransA(at, b); }));
    entries.push_back(Measure("matmul_tb", "blocked", m, k, n, repeats,
                              [&] { ops::MatMulTransB(a, bt); }));
    if (m == 512 && k == 256 && n == 256) {
      serial_512 = entries[entries.size() - 4].gflops;
      blocked_512 = entries[entries.size() - 3].gflops;
      // Cross-variant sanity: the rewrite must agree with the seed kernel.
      Tensor ref = ops::MatMulNaive(a, b);
      Tensor got = ops::MatMul(a, b);
      if (!ops::AllClose(ref, got, 1e-4f)) {
        std::fprintf(stderr, "FATAL: blocked kernel diverges from seed\n");
        return 1;
      }
    }
    std::printf("\n");
  }

  // Elementwise bandwidth probe (Axpy streams 3 floats per element).
  {
    const int64_t size = 1 << 22;
    Tensor x = RandomTensor(1, size, &rng);
    Tensor y = RandomTensor(1, size, &rng);
    const double secs =
        TimeBest([&] { ops::AxpyInPlace(&y, x, 0.5f); }, repeats);
    const double bytes = 12.0 * static_cast<double>(size);
    std::printf("  axpy           serial    %" PRId64
                " elems  %8.3f ms  %7.2f GB/s\n",
                size, secs * 1e3, bytes / secs / 1e9);
  }

  // Autograd layers at CTR shapes: forward, then the op's backward closure on
  // a fixed upstream gradient, accumulating into the leaves' gradients. The
  // shape is recorded as m x k x 1, so GFLOP/s counts one op per element in
  // each direction. A call takes tens of microseconds; 100 calls per
  // repetition keep the timer out of the result.
  std::printf("\n");
  {
    const int64_t m = 256, k = 64;
    autograd::Var x(RandomTensor(m, k, &rng), /*requires_grad=*/true);
    const Tensor g = RandomTensor(m, k, &rng);
    entries.push_back(Measure(
        "relu", "fwd_bwd", m, k, 1, repeats,
        [&] { autograd::Relu(x).node()->backward(g); }, 100));
  }
  {
    const int64_t m = 256, width = 16;
    std::vector<autograd::Var> parts;
    for (int p = 0; p < 4; ++p) {
      parts.emplace_back(RandomTensor(m, width, &rng), /*requires_grad=*/true);
    }
    const Tensor g = RandomTensor(m, 4 * width, &rng);
    entries.push_back(Measure(
        "concat_cols", "fwd_bwd", m, 4 * width, 1, repeats,
        [&] { autograd::ConcatCols(parts).node()->backward(g); }, 100));
  }
  {
    const int64_t rows = 10000, dim = 16, batch = 256;
    autograd::Var table(RandomTensor(rows, dim, &rng), /*requires_grad=*/true);
    std::vector<int64_t> ids(static_cast<size_t>(batch));
    for (int64_t& id : ids) {
      id = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(rows)));
    }
    const Tensor g = RandomTensor(batch, dim, &rng);
    entries.push_back(Measure(
        "embedding", "fwd_bwd", batch, dim, 1, repeats,
        [&] { autograd::EmbeddingLookup(table, ids).node()->backward(g); },
        100));
  }

  // One Adam step over Amazon13Like's |Θ| with every parameter carrying a
  // gradient: the optimizer's share of a DN batch step on that dataset.
  // Then the per-domain-pass parameter plumbing over the same |Θ|: one
  // Snapshot + Restore, and one MetaInterpolate. Every shape is recorded as
  // |Θ| x 1 x 1.
  {
    auto ds = data::Generate(data::Amazon13Like(1.0, 17));
    if (!ds.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", ds.status().ToString().c_str());
      return 1;
    }
    models::ModelConfig mc;
    mc.num_users = ds.value().num_users();
    mc.num_items = ds.value().num_items();
    mc.num_domains = ds.value().num_domains();
    Rng model_rng(mc.seed);
    auto model = models::CreateModel("MLP", mc, &model_rng);
    if (!model.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", model.status().ToString().c_str());
      return 1;
    }
    std::vector<autograd::Var> params = model.value()->Parameters();
    int64_t size = 0;
    for (autograd::Var& p : params) {
      Tensor grad(p.value().shape());
      for (int64_t i = 0; i < grad.size(); ++i) {
        grad.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      p.mutable_grad() = grad;
      size += grad.size();
    }
    optim::Adam adam(params, 1e-3f);
    entries.push_back(Measure("adam", "step", size, 1, 1, repeats,
                              [&] { adam.Step(); }, 10));
    entries.push_back(Measure(
        "snapshot_restore", "serial", size, 1, 1, repeats,
        [&] { optim::Restore(params, optim::Snapshot(params)); }, 10));
    const std::vector<Tensor> snap = optim::Snapshot(params);
    entries.push_back(Measure(
        "meta_interpolate", "serial", size, 1, 1, repeats,
        [&] { optim::MetaInterpolate(params, snap, 0.5f); }, 10));
  }

  std::printf("\n");
  std::vector<StepCost> costs;
  if (!MeasureTrainStep("taobao10", data::TaobaoLike(10), 256, repeats,
                        &entries, &costs) ||
      !MeasureTrainStep("amazon13", data::Amazon13Like(), 256, repeats,
                        &entries, &costs)) {
    return 1;
  }

  if (serial_512 > 0.0) {
    std::printf("\n512x256x256 speedup (blocked vs seed serial): %.2fx\n",
                blocked_512 / serial_512);
  }
  WriteJson(out, entries, costs);
  if (std::string obs_error; !obs::WriteConfiguredOutputs(&obs_error)) {
    std::fprintf(stderr, "observability output: %s\n", obs_error.c_str());
    return 1;
  }
  return 0;
}

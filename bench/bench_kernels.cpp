// bench_kernels: throughput of the tensor kernel layer.
//
// For representative CTR shapes (batch x embed-concat x hidden) it reports
// GFLOP/s of two MatMul variants:
//   serial    — the growth seed's unblocked kernel (ops::MatMulNaive), the
//               trajectory baseline;
//   blocked   — the cache-blocked kernel (ops::MatMul).
// Plus the blocked transposed variants and an elementwise bandwidth probe.
// Every kernel runs on the calling thread: kernels are serial by design
// (parallelism lives in independent units, see common/parallel_for.h).
// Results go to stdout and to a machine-readable BENCH_kernels.json so
// later changes can track the trajectory.
//
// Flags:
//   --repeats N   timing repetitions per variant (default 5, best-of)
//   --out PATH    JSON output path (default BENCH_kernels.json)
// Plus the global observability flags (--metrics-out/--trace-out), so a
// bench run can emit spans alongside its JSON.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
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

/// Best-of-N wall time in seconds (one untimed warmup run).
double TimeBest(const std::function<void()>& fn, int repeats) {
  fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = obs::MonotonicSeconds();
    fn();
    const double s = obs::MonotonicSeconds() - t0;
    if (s < best) best = s;
  }
  return best;
}

Entry Measure(const std::string& kernel, const std::string& variant,
              int64_t m, int64_t k, int64_t n, int repeats,
              const std::function<void()>& fn) {
  const double secs = TimeBest(fn, repeats);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  Entry e{kernel, variant, m, k, n, secs * 1e3, flops / secs / 1e9};
  std::printf("  %-14s %-9s %5" PRId64 " x %4" PRId64 " x %4" PRId64
              "  %8.3f ms  %7.2f GFLOP/s\n",
              e.kernel.c_str(), e.variant.c_str(), m, k, n, e.ms, e.gflops);
  return e;
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
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
  std::fprintf(f, "  }\n}\n");
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
  std::printf("=== kernel bench (serial kernels, hw=%u) ===\n\n",
              std::thread::hardware_concurrency());

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

  if (serial_512 > 0.0) {
    std::printf("\n512x256x256 speedup (blocked vs seed serial): %.2fx\n",
                blocked_512 / serial_512);
  }
  WriteJson(out, entries);
  if (std::string obs_error; !obs::WriteConfiguredOutputs(&obs_error)) {
    std::fprintf(stderr, "observability output: %s\n", obs_error.c_str());
    return 1;
  }
  return 0;
}

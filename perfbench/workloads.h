// The benchmark's workloads and the report each run prints.
#ifndef MAMDR_PERFBENCH_WORKLOADS_H_
#define MAMDR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  /// Traced run: install the timing wrappers and the library's trace spans
  /// and report per-layer metrics instead of the end-to-end ones.
  bool trace = false;
};

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<Metric> metrics;
  /// Run facts (key, JSON-encoded value) printed on the line before the
  /// result: machine, threads, build, seed, sample counts, checksums.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit);
  /// The nearest-rank q-quantile of `samples`, with its sample count in
  /// `info`; nothing when there are no samples. A tail quantile with fewer
  /// than kMinTailSamples beyond it is flagged in `info` as unresolved.
  void AddQuantile(std::string name, const std::vector<double>& samples,
                   double q, std::string unit);
  void Info(std::string key, double value);
  void InfoText(std::string key, const std::string& value);
  void Fail(std::string why);
};

/// The workload names --workload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload for about `options.seconds` of measured time.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // MAMDR_PERFBENCH_WORKLOADS_H_

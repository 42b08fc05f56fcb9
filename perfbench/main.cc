// mamdr_perfbench: one run of one benchmark workload.
//
//   mamdr_perfbench --workload mamdr-taobao10 --seed 7 --seconds 20 --trace 0
//
// Prints, as its last two lines, a JSON object of run facts and the result
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and is the benchmark's entry point.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/parallel_for.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mamdr_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n  workloads:");
  for (const auto& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else {
      std::fprintf(stderr, "bad flag %s %s\n", flag.c_str(), value);
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !known) {
    Usage();
    return 2;
  }

  // Parallelism comes only from independent units (serving clients, PS
  // workers); every kernel runs serially on its caller's thread.
  constexpr int64_t kKernelThreads = 1;
  mamdr::SetKernelThreads(kKernelThreads);

  perfbench::Report report;
  try {
    report = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Info("nproc", AvailableCpus());
  report.Info("kernel_threads", static_cast<double>(mamdr::KernelThreads()));
  report.InfoText("build_type", MAMDR_PERFBENCH_BUILD_TYPE);
  report.Info("seconds", options.seconds);
  report.Info("trace", options.trace ? 1 : 0);

  for (const auto& why : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  std::string info = "{\"info\": {";
  for (size_t i = 0; i < report.info.size(); ++i) {
    if (i > 0) info += ", ";
    info += JsonString(report.info[i].first) + ": " + report.info[i].second;
  }
  info += "}, \"problems\": [";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    if (i > 0) info += ", ";
    info += JsonString(report.problems[i]);
  }
  info += "]}";

  std::string result = std::string("{\"correct\": ") +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) result += ", ";
    result += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  return 0;
}

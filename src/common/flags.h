// Minimal command-line flag parsing for the CLI tools.
//
// Supports "--name=value", "--name value", and boolean "--name". Typed
// getters consume defaults; Unrecognized() reports unknown flags so tools
// can fail fast on typos.
#ifndef MAMDR_COMMON_FLAGS_H_
#define MAMDR_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace mamdr {

class FlagParser {
 public:
  /// Parse argv; fails on malformed arguments (non-flag positionals).
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Like GetInt, but rejects values that are not a full decimal integer
  /// (e.g. "--threads=abc" or "--threads=3x") with InvalidArgument instead
  /// of silently returning a partial parse / zero.
  Result<int64_t> GetIntChecked(const std::string& name,
                                int64_t default_value) const;

  /// Flags present on the command line but never queried by a Get*/Has call.
  std::vector<std::string> Unrecognized() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;
};

/// Applies process-wide flags shared by every CLI tool and bench. Currently:
///   --kernel-threads N     width of the evaluation fan-out: each
///                          EvaluateAllDomains call runs its domains on a
///                          pool of min(N, domains) threads built for that
///                          call (0 = hardware_concurrency, 1 = serial;
///                          also accepts --kernel_threads). Tensor kernels
///                          are always serial. See common/parallel_for.h.
///   --metrics-out PATH     install a telemetry sink and write the
///                          deterministic metrics JSON there at exit
///                          (obs::WriteConfiguredOutputs).
///   --trace-out PATH       start span recording and write chrome://tracing
///                          JSON there at exit.
///   --probe-conflict       record cross-domain gradient-conflict stats at
///                          the start of every DN epoch (implies a sink).
/// Returns InvalidArgument (and changes nothing) when a value is negative
/// or not an integer.
[[nodiscard]] Status ApplyGlobalFlags(const FlagParser& flags);

}  // namespace mamdr

#endif  // MAMDR_COMMON_FLAGS_H_

// Process-wide width of the evaluation fan-out. Its one reader is
// metrics::EvaluateAllDomains(kParallel), which builds a ThreadPool of
// min(KernelThreads(), num_domains) threads per call and runs one task per
// domain. The tensor kernels are serial on purpose (bench_kernels and
// perfbench measured the intra-op split slower at this repo's shapes), and
// tools/mamdr_lint.py's kernel-parallel rule keeps threads out of
// tensor/autograd/nn/optim.
#ifndef MAMDR_COMMON_PARALLEL_FOR_H_
#define MAMDR_COMMON_PARALLEL_FOR_H_

#include <cstdint>

namespace mamdr {

/// Sets the fan-out width. 0 = auto (hardware_concurrency); 1 = serial.
void SetKernelThreads(int64_t n);

/// Resolved fan-out width (always >= 1).
int64_t KernelThreads();

}  // namespace mamdr

#endif  // MAMDR_COMMON_PARALLEL_FOR_H_

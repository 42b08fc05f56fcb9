// Process-wide pool for independent units of work: a lazily-created shared
// ThreadPool plus a ParallelFor range splitter. Its one caller today is
// metrics::EvaluateAllDomains, which fans domains out over it. The tensor
// kernels are serial on purpose (bench_kernels and perfbench measured the
// intra-op split slower at this repo's shapes), and tools/mamdr_lint.py's
// kernel-parallel rule keeps ParallelFor out of tensor/autograd/nn/optim.
//
// Determinism contract: ParallelFor partitions [begin, end) into contiguous
// chunks and every chunk computes exactly what the serial loop would compute
// for those indices, so callers that write disjoint outputs per index get
// bit-identical results for any thread count (including 1).
#ifndef MAMDR_COMMON_PARALLEL_FOR_H_
#define MAMDR_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/thread_pool.h"

namespace mamdr {

/// Sets the pool's thread count. 0 = auto (hardware_concurrency); 1 runs
/// every ParallelFor inline on the calling thread. The shared pool is torn
/// down / rebuilt lazily on the next parallel call. Not meant to be called
/// concurrently with a running ParallelFor.
void SetKernelThreads(int64_t n);

/// Resolved pool thread count (always >= 1).
int64_t KernelThreads();

/// The shared pool, created on first use. Returns nullptr when
/// KernelThreads() == 1 (serial mode).
std::shared_ptr<ThreadPool> KernelPool();

namespace detail {

/// True when the calling thread should run the range inline: serial mode,
/// a range not worth splitting, or already inside a pool worker
/// (nested ParallelFor must not block on the pool that is running it).
bool ShouldSerialize(int64_t total, int64_t grain);

/// Slow path: split [begin, end) into chunks of at least `grain` indices,
/// run them on the pool, and rethrow the first chunk exception.
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn);

}  // namespace detail

/// Runs fn(chunk_begin, chunk_end) over contiguous chunks covering
/// [begin, end). Chunks hold at least `grain` indices; small ranges (and all
/// ranges when KernelThreads() == 1) run inline as fn(begin, end). `fn` must
/// be safe to call concurrently on disjoint chunks.
template <typename Fn>
inline void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (end <= begin) return;
  if (detail::ShouldSerialize(end - begin, grain)) {
    fn(begin, end);
    return;
  }
  detail::ParallelForImpl(
      begin, end, grain,
      std::function<void(int64_t, int64_t)>(std::forward<Fn>(fn)));
}

}  // namespace mamdr

#endif  // MAMDR_COMMON_PARALLEL_FOR_H_

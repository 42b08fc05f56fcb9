#include "common/parallel_for.h"

#include <atomic>
#include <thread>

#include "common/logging.h"

namespace mamdr {
namespace {

int64_t ResolveThreads(int64_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

std::atomic<int64_t> g_threads{ResolveThreads(0)};

}  // namespace

void SetKernelThreads(int64_t n) {
  MAMDR_CHECK_GE(n, 0);
  g_threads.store(ResolveThreads(n), std::memory_order_relaxed);
}

int64_t KernelThreads() { return g_threads.load(std::memory_order_relaxed); }

}  // namespace mamdr

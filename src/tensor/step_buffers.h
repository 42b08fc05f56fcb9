// Tensor storage reused across the steps of a training loop.
//
// A training step builds the same graph every time: the same tensors, of
// the same shapes, allocated in the same order. A StepBuffers set caches
// the storage of one step and hands it back, position by position, to the
// next. While a StepScope is open on a thread, every Tensor storage that
// thread allocates takes the set's buffer at the same position in the
// previous step, provided no Tensor still shares that buffer (the set holds
// the only reference) and its capacity suffices; otherwise it allocates a
// fresh buffer and caches that one instead. A buffer some Tensor still
// holds (a value kept across steps, a parameter gradient, optimizer state)
// is therefore never handed out twice.
//
// A set belongs to one owner (a framework, a PS worker) and is only ever
// active on the thread running that owner's training pass; no other thread
// sees its buffers while they are cached. The owner releases the set when
// its epoch ends, so evaluation never runs beside a step's worth of cached
// activations.
#ifndef MAMDR_TENSOR_STEP_BUFFERS_H_
#define MAMDR_TENSOR_STEP_BUFFERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mamdr {

/// Tensor storage buffers the calling thread has allocated from the heap
/// (every Tensor constructor and Clone() that a StepBuffers set did not
/// serve). Thread-local, so concurrent threads do not disturb a reading.
int64_t ThreadTensorAllocations();

/// Allocation totals of one set over its whole life (Release keeps them).
struct StepStats {
  int64_t steps = 0;
  /// Heap allocations made inside the set's steps.
  int64_t allocations = 0;
  /// The part of `allocations` made after the first pass that followed a
  /// Release (see EndPass): what a steady-state step allocates.
  int64_t steady_allocations = 0;

  StepStats& operator+=(const StepStats& o) {
    steps += o.steps;
    allocations += o.allocations;
    steady_allocations += o.steady_allocations;
    return *this;
  }
};

class StepBuffers {
 public:
  StepBuffers() = default;
  StepBuffers(const StepBuffers&) = delete;
  StepBuffers& operator=(const StepBuffers&) = delete;

  /// Marks the end of one pass over a domain's batches.
  void EndPass() { ++passes_; }

  /// Drops every cached buffer (a Tensor still sharing one keeps it). Not
  /// while a StepScope on this set is open.
  void Release();

  const StepStats& stats() const { return stats_; }
  /// Buffers cached for the next step.
  int64_t cached_buffers() const { return static_cast<int64_t>(slots_.size()); }

 private:
  friend class StepScope;
  friend std::shared_ptr<std::vector<float>> AllocateTensorStorage(size_t n,
                                                                   bool fill,
                                                                   float value);

  // The buffer at the next position, resized to n, if the set holds the
  // only reference and its capacity suffices; else null.
  std::shared_ptr<std::vector<float>> Reuse(size_t n);
  // Caches a freshly allocated buffer at the next position.
  void Keep(const std::shared_ptr<std::vector<float>>& fresh);

  std::vector<std::shared_ptr<std::vector<float>>> slots_;
  size_t cursor_ = 0;
  int64_t passes_ = 0;
  StepStats stats_;
};

/// One training step on `buffers` (null: a no-op scope): while it is open,
/// the calling thread's Tensor storage comes from the set, starting at its
/// first position. Scopes nest; the innermost one is active.
class StepScope {
 public:
  explicit StepScope(StepBuffers* buffers);
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  StepBuffers* buffers_;
  StepBuffers* prev_ = nullptr;
  int64_t allocations_at_start_ = 0;
};

/// Storage for a new Tensor of n elements: the active set's buffer when it
/// can serve one, else a fresh heap buffer. `fill` sets every element to
/// `value`; without it, a reused buffer keeps the previous step's contents
/// (a fresh one is zeroed), for callers that overwrite every element.
std::shared_ptr<std::vector<float>> AllocateTensorStorage(size_t n, bool fill,
                                                          float value);

/// Counts one heap-allocated storage that bypassed AllocateTensorStorage
/// (a Tensor adopting a caller's vector).
void CountTensorAllocation();

}  // namespace mamdr

#endif  // MAMDR_TENSOR_STEP_BUFFERS_H_

#include "tensor/step_buffers.h"

#include <algorithm>

namespace mamdr {
namespace {

thread_local StepBuffers* t_active = nullptr;
thread_local int64_t t_allocations = 0;

}  // namespace

int64_t ThreadTensorAllocations() { return t_allocations; }

void CountTensorAllocation() { ++t_allocations; }

void StepBuffers::Release() {
  slots_.clear();
  slots_.shrink_to_fit();
  cursor_ = 0;
  passes_ = 0;
}

std::shared_ptr<std::vector<float>> StepBuffers::Reuse(size_t n) {
  if (cursor_ >= slots_.size()) return nullptr;
  std::shared_ptr<std::vector<float>>& slot = slots_[cursor_];
  // use_count() == 1: no Tensor shares the buffer, and only this thread
  // could hand out a new reference to it.
  if (slot.use_count() != 1 || slot->capacity() < n) return nullptr;
  ++cursor_;
  slot->resize(n);
  return slot;
}

void StepBuffers::Keep(const std::shared_ptr<std::vector<float>>& fresh) {
  if (cursor_ < slots_.size()) {
    slots_[cursor_] = fresh;
  } else {
    slots_.push_back(fresh);
  }
  ++cursor_;
}

std::shared_ptr<std::vector<float>> AllocateTensorStorage(size_t n, bool fill,
                                                          float value) {
  StepBuffers* set = t_active;
  if (set != nullptr) {
    if (std::shared_ptr<std::vector<float>> reused = set->Reuse(n)) {
      if (fill) std::fill(reused->begin(), reused->end(), value);
      return reused;
    }
  }
  ++t_allocations;
  auto fresh = std::make_shared<std::vector<float>>(n, fill ? value : 0.0f);
  if (set != nullptr) set->Keep(fresh);
  return fresh;
}

StepScope::StepScope(StepBuffers* buffers) : buffers_(buffers) {
  if (buffers_ == nullptr) return;
  prev_ = t_active;
  t_active = buffers_;
  buffers_->cursor_ = 0;
  allocations_at_start_ = t_allocations;
}

StepScope::~StepScope() {
  if (buffers_ == nullptr) return;
  t_active = prev_;
  const int64_t made = t_allocations - allocations_at_start_;
  StepStats& s = buffers_->stats_;
  ++s.steps;
  s.allocations += made;
  if (buffers_->passes_ > 0) s.steady_allocations += made;
}

}  // namespace mamdr

// Annotated mutex / condition-variable wrappers.
//
// std::mutex carries no thread-safety attributes, so clang's -Wthread-safety
// cannot reason about it. These thin wrappers add the capability annotations
// plus, in instrumented builds, the runtime lockdep hooks (common/lockdep.h):
// Mutex is a std::mutex declared as a capability, MutexLock is the scoped
// guard, and CondVar adapts std::condition_variable to a Mutex that is
// already held through a MutexLock. All locking code in the library goes
// through these types so the static analysis sees every acquisition and the
// lockdep order graph records it — the mamdr_lint `native-mutex` rule
// rejects raw std::mutex elsewhere precisely so nothing bypasses this
// funnel.
//
// Name long-lived locks with a lock class so lockdep can prove ordering:
//
//   Mutex mu_{MAMDR_LOCK_CLASS("ps.state")};
//
// In Release builds the class argument degrades to nullptr, the hooks
// compile out, and Mutex stores nothing beyond the std::mutex.
#ifndef MAMDR_COMMON_MUTEX_H_
#define MAMDR_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/lockdep.h"
#include "common/thread_annotations.h"

namespace mamdr {

class MAMDR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A mutex with a lockdep lock class (see MAMDR_LOCK_CLASS). Every mutex
  /// constructed with the same class name shares one node in the order
  /// graph.
  explicit Mutex(const lockdep::LockClass* cls) {
#if MAMDR_LOCKDEP_IS_ON()
    cls_ = cls;
#else
    (void)cls;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MAMDR_ACQUIRE() {
#if MAMDR_LOCKDEP_IS_ON()
    lockdep::OnLock(this, cls_);
#endif
    mu_.lock();
  }
  void Unlock() MAMDR_RELEASE() {
#if MAMDR_LOCKDEP_IS_ON()
    lockdep::OnUnlock(this);
#endif
    mu_.unlock();
  }
  bool TryLock() MAMDR_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
#if MAMDR_LOCKDEP_IS_ON()
    if (acquired) lockdep::OnTryLock(this, cls_);
#endif
    return acquired;
  }

  /// The wrapped std::mutex, for CondVar only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
#if MAMDR_LOCKDEP_IS_ON()
  const lockdep::LockClass* cls_ = nullptr;
#endif
};

/// RAII guard: locks at construction, unlocks at destruction.
class MAMDR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MAMDR_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() MAMDR_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable usable with a Mutex held via MutexLock. Wait()
/// atomically releases the mutex while blocked and reacquires it before
/// returning, exactly like std::condition_variable — callers keep the usual
///   while (!predicate) cv.Wait(&mu);
/// shape, which the analysis fully understands (the capability is held
/// around the whole loop).
///
/// In lockdep builds, entering a wait while any mutex *other than the one
/// being waited on* is held is reported as a blocking-under-lock violation:
/// the waiter keeps that other lock across an unbounded sleep, which is the
/// classic shape of a lost-wakeup deadlock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) MAMDR_REQUIRES(mu) MAMDR_NO_THREAD_SAFETY_ANALYSIS {
#if MAMDR_LOCKDEP_IS_ON()
    lockdep::OnCondVarWait(mu);
#endif
    // Adopt the externally-held lock for the duration of the wait, then
    // hand ownership back (release()) so the caller's guard still unlocks.
    std::unique_lock<std::mutex> lock(mu->native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mamdr

#endif  // MAMDR_COMMON_MUTEX_H_

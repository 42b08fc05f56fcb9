// Runtime lock-order validation (lockdep) for the annotated Mutex/CondVar
// wrappers in common/mutex.h.
//
// clang's -Wthread-safety proves that guarded state is only touched under
// its lock, and TSan catches unsynchronized access — but neither proves
// lock-*order* consistency (thread 1 takes A then B while thread 2 takes B
// then A deadlocks exactly once, under load, in production), and neither
// flags a blocking call (CondVar::Wait, a retried RPC) issued while an
// unrelated mutex is held. Lockdep closes both gaps at runtime, the same
// way the Linux kernel's lockdep does: locks are grouped into named
// *classes*, every "acquired class B while holding class A" event inserts
// the edge A→B into a process-global order graph, and an insertion that
// closes a cycle is reported immediately — no actual deadlock needs to
// occur, a single run that exercises both orders is enough.
//
// What is checked (in instrumented builds):
//   * order inversion — acquiring a lock class that can reach an
//     already-held class in the order graph (incremental DFS at edge
//     insertion). The report carries the witness chain: the acquisition
//     stacks recorded when each edge of the cycle was first observed, plus
//     the stack of the acquisition that closed it.
//   * same-class nesting — acquiring a lock of a class while already
//     holding a lock of that same class (self-deadlock with one instance;
//     unprovable order with two).
//   * blocking under lock — CondVar::Wait entered while a mutex
//     *other than the one being waited on* is held, and any code path that
//     calls AssertNoLocksHeld() (the retry/backoff runner and the fault
//     injector's latency sleep do) while any instrumented lock is held.
//
// Lock classes are assigned at Mutex construction:
//
//   Mutex mu_{MAMDR_LOCK_CLASS("ps.state")};
//
// Class names follow "<module>.<component>[.<role>]" (see
// docs/ARCHITECTURE.md "Concurrency analysis"). Registration is
// process-lifetime and idempotent: every Mutex constructed with the same
// name shares one class, so per-instance locks (one per worker, one per
// ParallelFor latch) collapse into a single node in the order graph.
// Unnamed mutexes are tracked in the per-thread held set (so
// blocking-under-lock still sees them) but take no part in the order
// graph — name every long-lived lock.
//
// Cost model: the whole subsystem is compiled out unless
// MAMDR_LOCKDEP_IS_ON() — Debug builds (!NDEBUG) or any build that defines
// MAMDR_DEBUG_CHECKS (the sanitizer CMake configs and the dedicated
// -DMAMDR_DEBUG_CHECKS=ON option do). In Release the hooks do not exist,
// MAMDR_LOCK_CLASS() expands to nullptr and Mutex stores nothing: the
// wrappers are byte-for-byte the plain std::mutex wrappers, which is what
// keeps bench_serving inside the perfdiff gate.
//
// Violations are reported once per offending edge through MAMDR_LOG(Error)
// with the full witness chain, counted in ViolationCount(), and the last
// report is kept for tests (LastReport()). Reporting is not fatal: the
// chaos suites run to completion with lockdep armed and assert
// ViolationCount() == 0 at the end.
#ifndef MAMDR_COMMON_LOCKDEP_H_
#define MAMDR_COMMON_LOCKDEP_H_

#include <cstdint>
#include <string>

#if !defined(NDEBUG) || defined(MAMDR_DEBUG_CHECKS)
#define MAMDR_LOCKDEP_IS_ON() 1
#else
#define MAMDR_LOCKDEP_IS_ON() 0
#endif

namespace mamdr {

class Mutex;

namespace lockdep {

/// Opaque named lock class; obtained from RegisterClass / MAMDR_LOCK_CLASS
/// and passed to the Mutex constructor. Lives for the process lifetime.
class LockClass;

#if MAMDR_LOCKDEP_IS_ON()

/// Intern `name` as a lock class. Idempotent: the same name always returns
/// the same class. Thread-safe; `name` is copied.
const LockClass* RegisterClass(const char* name);

/// The registered name of a class (for tests / reports).
const char* ClassName(const LockClass* cls);

// --- Hooks wired into common/mutex.h (not for direct use) ---------------

/// Called by Mutex::Lock before blocking on the native mutex: records the
/// held-set entry, inserts order edges against every currently-held class,
/// and reports any cycle the insertion closes.
void OnLock(const Mutex* mu, const LockClass* cls);

/// Called by Mutex::TryLock after a *successful* try_lock: records the
/// held-set entry only. A try-lock cannot block, so it constrains no order.
void OnTryLock(const Mutex* mu, const LockClass* cls);

/// Called by Mutex::Unlock before releasing: pops the held-set entry.
void OnUnlock(const Mutex* mu);

/// Called by CondVar::Wait on entry: reports blocking-under-lock if
/// any mutex other than `mu` is held by this thread. `mu` itself stays in
/// the held set across the wait, matching the caller's view of the world.
void OnCondVarWait(const Mutex* mu);

// --- Assertions for blocking call sites ---------------------------------

/// Report a blocking-under-lock violation if the calling thread holds any
/// instrumented mutex. `what` names the blocking operation in the report
/// (e.g. "retry.run"). Called by RetryPolicy::Run and the fault injector's
/// latency sleep; sprinkle it on any new RPC/sleep/join path.
void AssertNoLocksHeld(const char* what);

// --- Introspection (tests, CI assertions) -------------------------------

/// Violations reported since process start (or the last ResetForTest).
uint64_t ViolationCount();

/// Full text of the most recent violation report ("" if none).
std::string LastReport();

/// Number of locks the calling thread currently holds (named or not).
int HeldCount();

/// Drop every recorded order edge, the violation counter, and the last
/// report. Class registrations survive (they are interned for the process
/// lifetime). Tests call this so a deliberately-seeded inversion does not
/// bleed into a later clean-run assertion. Not thread-safe against
/// concurrent lock traffic — call it from a quiescent point.
void ResetForTest();

/// True in builds where lockdep is compiled in. Tests use this to skip
/// negative assertions in Release.
inline constexpr bool Armed() { return true; }

#define MAMDR_LOCK_CLASS(name) (::mamdr::lockdep::RegisterClass(name))

#else  // !MAMDR_LOCKDEP_IS_ON()

// Release: every entry point collapses to a no-op the optimizer deletes.
// The hook declarations are omitted entirely — common/mutex.h compiles the
// call sites out — so a Release TU cannot even reference them.

inline void AssertNoLocksHeld(const char*) {}
inline uint64_t ViolationCount() { return 0; }
inline std::string LastReport() { return std::string(); }
inline int HeldCount() { return 0; }
inline void ResetForTest() {}
inline constexpr bool Armed() { return false; }

#define MAMDR_LOCK_CLASS(name) \
  (static_cast<const ::mamdr::lockdep::LockClass*>(nullptr))

#endif  // MAMDR_LOCKDEP_IS_ON()

}  // namespace lockdep
}  // namespace mamdr

#endif  // MAMDR_COMMON_LOCKDEP_H_

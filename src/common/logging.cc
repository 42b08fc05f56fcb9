#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/mutex.h"

namespace mamdr {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

// Leaf lock: never acquires anything while held, so any thread may log
// while holding other locks without creating order constraints beyond
// "<anything> -> common.logging". Wrapped (not raw) so lockdep records
// exactly that.
Mutex& log_mutex() {
  static Mutex* mu = new Mutex(MAMDR_LOCK_CLASS("common.logging"));
  return *mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (fatal_ || static_cast<int>(level_) >= g_min_level.load()) {
    MutexLock lock(&log_mutex());
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace mamdr

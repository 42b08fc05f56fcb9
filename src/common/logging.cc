#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

#include "common/mutex.h"

namespace mamdr {
namespace {

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

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (fatal_ || level_ >= LogLevel::kInfo) {
    MutexLock lock(&log_mutex());
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace mamdr

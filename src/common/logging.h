// Minimal logging + CHECK macros (glog-style severity, RocksDB-style use).
#ifndef MAMDR_COMMON_LOGGING_H_
#define MAMDR_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace mamdr {

/// Messages below kInfo are dropped.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

/// Stream-style log line; emits on destruction. `fatal` aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  bool fatal_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace mamdr

#define MAMDR_LOG(level)                                                  \
  ::mamdr::internal::LogMessage(::mamdr::LogLevel::k##level, __FILE__, \
                                __LINE__)                                 \
      .stream()

#define MAMDR_CHECK(cond)                                                   \
  if (!(cond))                                                              \
  ::mamdr::internal::LogMessage(::mamdr::LogLevel::kError, __FILE__,        \
                                __LINE__, /*fatal=*/true)                   \
          .stream()                                                         \
      << "Check failed: " #cond " "

#define MAMDR_CHECK_EQ(a, b) MAMDR_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define MAMDR_CHECK_NE(a, b) MAMDR_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define MAMDR_CHECK_LT(a, b) MAMDR_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define MAMDR_CHECK_LE(a, b) MAMDR_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define MAMDR_CHECK_GT(a, b) MAMDR_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define MAMDR_CHECK_GE(a, b) MAMDR_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#endif  // MAMDR_COMMON_LOGGING_H_

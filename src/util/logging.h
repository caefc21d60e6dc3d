// Minimal leveled logging to stderr. Off by default at DEBUG so tests and
// benches stay quiet; BKUP_LOG(INFO) is for example programs.
#ifndef BKUP_UTIL_LOGGING_H_
#define BKUP_UTIL_LOGGING_H_

#include <sstream>

namespace bkup {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Global threshold (kWarning); messages below it are discarded.
LogLevel GetLogLevel();

// Time source for log prefixes. When a simulation is running, messages are
// prefixed with the current simulated time ("T+12.345678s") so logs
// correlate with exported traces; otherwise with wall-clock time of day.
// The function returns the current simulated time in microseconds, or a
// negative value when no simulation is active. SimEnvironment installs one
// automatically; util itself must not depend on sim, hence the hook.
using SimLogClockFn = int64_t (*)();
void SetSimLogClock(SimLogClockFn clock);

// Internal: a single log statement. Flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Discards everything streamed into it; used when level is filtered out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

#define BKUP_LOG(level)                                              \
  if (::bkup::LogLevel::k##level < ::bkup::GetLogLevel())            \
    ;                                                                \
  else                                                               \
    ::bkup::LogMessage(::bkup::LogLevel::k##level, __FILE__, __LINE__).stream()

}  // namespace bkup

#endif  // BKUP_UTIL_LOGGING_H_

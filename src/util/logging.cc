#include "src/util/logging.h"

#include <cstdio>
#include <ctime>

namespace bkup {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarning;
SimLogClockFn g_sim_clock = nullptr;

// "T+12.345678s" when a simulation is active, "14:03:22" otherwise.
std::string TimePrefix() {
  if (g_sim_clock != nullptr) {
    const int64_t us = g_sim_clock();
    if (us >= 0) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "T+%lld.%06llds",
                    static_cast<long long>(us / 1000000),
                    static_cast<long long>(us % 1000000));
      return buf;
    }
  }
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec);
  return buf;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return kLevel; }

void SetSimLogClock(SimLogClockFn clock) { g_sim_clock = clock; }

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from the file name for compact output.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << TimePrefix() << " " << base
          << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fputs(stream_.str().c_str(), stderr);
  std::fputc('\n', stderr);
}

}  // namespace bkup

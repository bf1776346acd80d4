// Minimal leveled logging to stderr. Benchmarks and the DES engine log at
// kDebug; tools log at kInfo. The level is process-global and settable via
// the SION_LOG_LEVEL environment variable (error|warn|info|debug|trace).
#pragma once

#include <sstream>
#include <string>

namespace sion {

enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
  kTrace = 4,
};

LogLevel log_level();
void log_message(LogLevel level, const char* file, int line,
                 const std::string& message);

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { log_message(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace sion

#define SION_LOG(level)                                  \
  if (static_cast<int>(level) > static_cast<int>(::sion::log_level())) { \
  } else                                                 \
    ::sion::detail::LogLine(level, __FILE__, __LINE__)

#define SION_LOG_ERROR SION_LOG(::sion::LogLevel::kError)
#define SION_LOG_WARN SION_LOG(::sion::LogLevel::kWarn)
#define SION_LOG_INFO SION_LOG(::sion::LogLevel::kInfo)
#define SION_LOG_DEBUG SION_LOG(::sion::LogLevel::kDebug)
#define SION_LOG_TRACE SION_LOG(::sion::LogLevel::kTrace)

// Assertion for programming errors (never for expected failures).
#define SION_CHECK(cond)                                                     \
  if (cond) {                                                                \
  } else                                                                     \
    ::sion::detail::CheckFailure(__FILE__, __LINE__, #cond).stream()

namespace sion::detail {
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* cond);
  [[noreturn]] ~CheckFailure();
  std::ostringstream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  const char* cond_;
  std::ostringstream stream_;
};
}  // namespace sion::detail

#ifndef EDGERT_COMMON_LOGGING_HH
#define EDGERT_COMMON_LOGGING_HH

/**
 * @file
 * Lightweight logging and error-reporting utilities, gem5-flavoured.
 *
 * fatal()  — unrecoverable user-level error (bad config / arguments);
 *            throws FatalError so tests can assert on it.
 * panic()  — internal invariant violation (a bug in EdgeRT itself);
 *            aborts the process after printing.
 * warn()   — something is suspicious but the run can continue.
 * inform() — normal status output.
 * debug()  — chatty diagnostics (tactic choices, cache probes);
 *            suppressed unless the level is lowered to kDebug.
 *
 * Output is filtered by a global LogLevel and routed through a
 * pluggable LogSink. The default sink writes
 * `[edgert:<level>] <msg>\n` to stderr under a mutex so concurrent
 * worker threads never interleave partial lines.
 */

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace edgert {

/** Exception thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Severity levels, least to most severe. */
enum class LogLevel
{
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/** Short lower-case name ("debug", "info", "warn", "error"). */
const char *logLevelName(LogLevel level);

/** Messages below `level` are dropped. Default: kInfo. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/**
 * Receives every message that passes the level filter. Called with
 * the emit mutex held, so sinks need no locking of their own but
 * must not log reentrantly.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/** Replace the sink; an empty function restores the stderr default.
 *  Returns nothing — callers wanting to restore use setLogSink({}). */
void setLogSink(LogSink sink);

namespace log_detail {

/** Stream one or more arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

void emit(LogLevel level, const std::string &msg);
[[noreturn]] void abortWith(const std::string &msg);

} // namespace log_detail

/** Print a diagnostic message (shown only at kDebug). */
template <typename... Args>
void
debug(Args &&...args)
{
    if (logLevel() <= LogLevel::kDebug)
        log_detail::emit(LogLevel::kDebug,
                         log_detail::concat(args...));
}

/** Print an informational message (suppressed when not verbose). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() <= LogLevel::kInfo)
        log_detail::emit(LogLevel::kInfo,
                         log_detail::concat(args...));
}

/** Print a warning (suppressed only above kWarn). */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() <= LogLevel::kWarn)
        log_detail::emit(LogLevel::kWarn,
                         log_detail::concat(args...));
}

/** Report a user-level error and throw FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = log_detail::concat(args...);
    log_detail::emit(LogLevel::kError, msg);
    throw FatalError(msg);
}

/** Report an internal bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    log_detail::abortWith(log_detail::concat(args...));
}

} // namespace edgert

#endif // EDGERT_COMMON_LOGGING_HH

#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace edgert {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

std::mutex &
sinkMutex()
{
    static std::mutex mu;
    return mu;
}

LogSink &
sinkSlot()
{
    static LogSink sink;
    return sink;
}

void
defaultSink(LogLevel level, const std::string &msg)
{
    std::fprintf(stderr, "[edgert:%s] %s\n", logLevelName(level),
                 msg.c_str());
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug:
        return "debug";
      case LogLevel::kInfo:
        return "info";
      case LogLevel::kWarn:
        return "warn";
      case LogLevel::kError:
        return "fatal";
    }
    return "?";
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level),
                  std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        g_level.load(std::memory_order_relaxed));
}

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sinkSlot() = std::move(sink);
}

namespace log_detail {

void
emit(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    if (const LogSink &sink = sinkSlot())
        sink(level, msg);
    else
        defaultSink(level, msg);
}

void
abortWith(const std::string &msg)
{
    std::fprintf(stderr, "[edgert:panic] %s\n", msg.c_str());
    std::abort();
}

} // namespace log_detail

} // namespace edgert

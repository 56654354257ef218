#include "common/strutil.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace edgert {

std::string
formatBytes(std::uint64_t bytes)
{
    const char *units[] = {"B", "KB", "MB", "GB"};
    double v = static_cast<double>(bytes);
    int u = 0;
    while (v >= 1024.0 && u < 3) {
        v /= 1024.0;
        u++;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

std::string
formatNanos(std::uint64_t ns)
{
    char buf[32];
    if (ns < 1000)
        std::snprintf(buf, sizeof(buf), "%llu ns",
                      static_cast<unsigned long long>(ns));
    else if (ns < 1000'000)
        std::snprintf(buf, sizeof(buf), "%.2f us",
                      static_cast<double>(ns) / 1e3);
    else if (ns < 1000'000'000)
        std::snprintf(buf, sizeof(buf), "%.2f ms",
                      static_cast<double>(ns) / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.3f s",
                      static_cast<double>(ns) / 1e9);
    return buf;
}

std::string
formatDouble(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
meanStdCell(double mean, double stddev, int decimals)
{
    return formatDouble(mean, decimals) + "(" +
           formatDouble(stddev, decimals) + ")";
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, delim))
        out.push_back(item);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

/** Shared strto* wrapper: whole-string, errno-checked. */
template <typename T, typename Fn>
Result<T>
parseWith(const std::string &s, Fn fn, const char *what)
{
    if (s.empty())
        return errorStatus(ErrorCode::kInvalidArgument, "empty ",
                           what);
    errno = 0;
    char *end = nullptr;
    auto v = fn(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        return errorStatus(ErrorCode::kInvalidArgument, "'", s,
                           "' is not a valid ", what);
    if (errno == ERANGE)
        return errorStatus(ErrorCode::kOutOfRange, "'", s,
                           "' is out of range for a ", what);
    return static_cast<T>(v);
}

} // namespace

Result<std::int64_t>
parseInt64(const std::string &s)
{
    return parseWith<std::int64_t>(
        s,
        [](const char *p, char **end) {
            return std::strtoll(p, end, 10);
        },
        "integer");
}

Result<std::uint64_t>
parseUint64(const std::string &s)
{
    // strtoull silently accepts "-1" (wrapping); reject signs here.
    if (!s.empty() && (s[0] == '-' || s[0] == '+'))
        return errorStatus(ErrorCode::kInvalidArgument, "'", s,
                           "' is not a valid unsigned integer");
    return parseWith<std::uint64_t>(
        s,
        [](const char *p, char **end) {
            return std::strtoull(p, end, 10);
        },
        "unsigned integer");
}

Result<double>
parseDouble(const std::string &s)
{
    Result<double> r = parseWith<double>(
        s,
        [](const char *p, char **end) {
            return std::strtod(p, end);
        },
        "number");
    // strtod also reads nan, inf and infinity; no setting means those.
    if (r.ok() && !std::isfinite(*r))
        return errorStatus(ErrorCode::kInvalidArgument, "'", s,
                           "' is not a finite number");
    return r;
}

} // namespace edgert

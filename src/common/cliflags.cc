#include "common/cliflags.hh"

#include <cstdarg>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edgert {

bool
FlagParser::next()
{
    if (i_ + 1 >= argc_)
        return false;
    i_++;
    arg_ = argv_[i_];
    inline_value_.reset();
    if (arg_.rfind("--", 0) == 0) {
        std::size_t eq = arg_.find('=');
        if (eq != std::string::npos) {
            inline_value_ = arg_.substr(eq + 1);
            arg_ = arg_.substr(0, eq);
        }
    }
    return true;
}

bool
FlagParser::isOption() const
{
    return arg_.rfind("--", 0) == 0;
}

std::string
FlagParser::value()
{
    if (inline_value_) {
        // One value per flag: consume it so a stray second call is
        // a missing-value diagnostic, not a silent repeat.
        std::string v = *inline_value_;
        inline_value_.reset();
        return v;
    }
    if (i_ + 1 >= argc_)
        fatal("missing value for ", arg_);
    return argv_[++i_];
}

double
FlagParser::numberValue()
{
    std::string v = value();
    auto r = parseDouble(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

std::int64_t
FlagParser::intValue()
{
    std::string v = value();
    auto r = parseInt64(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

std::uint64_t
FlagParser::unsignedValue()
{
    std::string v = value();
    auto r = parseUint64(v);
    if (!r.ok())
        fatal("invalid value '", v, "' for ", arg_, ": ",
              r.status().message());
    return *r;
}

int
FlagParser::positiveValue()
{
    auto n = unsignedValue();
    if (n < 1)
        fatal("invalid value '", n, "' for ", arg_,
              ": must be at least 1");
    if (n > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
        fatal("invalid value '", n, "' for ", arg_, ": must be at most ",
              std::numeric_limits<int>::max());
    return static_cast<int>(n);
}

double
optionNumber(const std::string &key, const std::string &value)
{
    auto r = parseDouble(value);
    if (!r.ok())
        fatal("bad option '", key, "=", value,
              "': ", r.status().message());
    return *r;
}

int
optionInt(const std::string &key, const std::string &value)
{
    auto r = parseInt64(value);
    if (!r.ok())
        fatal("bad option '", key, "=", value,
              "': ", r.status().message());
    if (*r < std::numeric_limits<int>::min() ||
        *r > std::numeric_limits<int>::max())
        fatal("bad option '", key, "=", value,
              "': out of range for an int");
    return static_cast<int>(*r);
}

std::uint64_t
optionUnsigned(const std::string &key, const std::string &value)
{
    auto r = parseUint64(value);
    if (!r.ok())
        fatal("bad option '", key, "=", value,
              "': ", r.status().message());
    return *r;
}

void
say(const char *fmt, ...)
{
    if (logLevel() > LogLevel::kInfo)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
}

int
runCli(int (*run)(int, char **), int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}

} // namespace edgert

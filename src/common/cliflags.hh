#ifndef EDGERT_COMMON_CLIFLAGS_HH
#define EDGERT_COMMON_CLIFLAGS_HH

/**
 * @file
 * The generic pieces of the EdgeRT command-line drivers: the one
 * `--opt value` / `--opt=value` argument scanner, strict `key=value`
 * option numbers, progress chatter and the FatalError main wrapper.
 * The scanner reads:
 *
 *     FlagParser flags(argc, argv);
 *     while (flags.next()) {
 *         if (flags.is("--model"))
 *             model = flags.value();
 *         else if (flags.is("--runs"))
 *             runs = static_cast<int>(flags.intValue());
 *         else
 *             ... unknown option ...
 *     }
 *
 * Values may be inline (`--runs=5`) or the next argv entry
 * (`--runs 5`). Numeric accessors go through the strict
 * common/strutil parsers and fatal() with a diagnostic naming the
 * flag — a malformed value must exit non-zero with a message, never
 * surface as an uncaught std::sto* exception. Tokens that do not
 * start with `--` (subcommands, positional operands) come through
 * arg() unsplit.
 */

#include <cstdint>
#include <optional>
#include <string>

namespace edgert {

/** Sequential argv scanner with --opt=value splitting. */
class FlagParser
{
  public:
    FlagParser(int argc, char **argv) : argc_(argc), argv_(argv) {}

    /** Advance to the next argument; false when argv is exhausted. */
    bool next();

    /** Current option name (inline `=value` stripped), or the raw
     *  token for non-option arguments. */
    const std::string &arg() const { return arg_; }

    /** True when the current argument is exactly `name`. */
    bool is(const char *name) const { return arg_ == name; }

    /** True when the current token starts with "--". */
    bool isOption() const;

    /**
     * The current option's value: the inline `=value` if present,
     * otherwise the next argv entry (consumed). fatal()s when
     * neither exists.
     */
    std::string value();

    /** value() parsed as a strict double; fatal()s on a malformed
     *  value, naming the flag. */
    double numberValue();

    /** value() parsed as a strict signed integer. */
    std::int64_t intValue();

    /** value() parsed as a strict unsigned integer. */
    std::uint64_t unsignedValue();

    /** unsignedValue() that must be at least 1 and fit an int
     *  (thread counts, sample rates, ring depths); fatal()s naming
     *  the flag. */
    int positiveValue();

  private:
    int argc_;
    char **argv_;
    int i_ = 0; //!< argv index of the current argument
    std::string arg_;
    std::optional<std::string> inline_value_;
};

/** Value of one `key=value` option in a spec string, parsed as a
 *  strict double; fatal()s naming the pair on a malformed number. */
double optionNumber(const std::string &key, const std::string &value);

/** optionNumber() for strict signed integers that fit an int;
 *  fatal()s on a value out of that range. */
int optionInt(const std::string &key, const std::string &value);

/** optionNumber() for strict unsigned 64-bit integers (seeds, build
 *  ids). */
std::uint64_t optionUnsigned(const std::string &key,
                             const std::string &value);

/** printf-style progress chatter on stdout; silent once the log
 *  level is above info (the drivers' --quiet). */
void say(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * A driver's main(): run `run(argc, argv)` and map FatalError to exit
 * code 1. fatal() has already printed the diagnostic through the log
 * sink; a bad flag or config must exit non-zero, not abort.
 */
int runCli(int (*run)(int, char **), int argc, char **argv);

} // namespace edgert

#endif // EDGERT_COMMON_CLIFLAGS_HH

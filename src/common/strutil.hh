#ifndef EDGERT_COMMON_STRUTIL_HH
#define EDGERT_COMMON_STRUTIL_HH

/**
 * @file
 * String formatting helpers for reports and bench output.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"

namespace edgert {

/** Format a byte count as a human-readable string ("12.45 MB"). */
std::string formatBytes(std::uint64_t bytes);

/** Format a duration in nanoseconds ("3.42 ms", "118 us"). */
std::string formatNanos(std::uint64_t ns);

/** Format a double with fixed decimals. */
std::string formatDouble(double v, int decimals);

/** "mean(std)" cell used throughout the paper's tables. */
std::string meanStdCell(double mean, double stddev, int decimals = 2);

/** Split a string on a delimiter character. */
std::vector<std::string> split(const std::string &s, char delim);

/** True when `s` starts with `prefix`. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Strict numeric parsers for untrusted text (CLI flag values).
 * Unlike std::stoi and friends they never throw: the whole string
 * must parse (no trailing junk, no empty input) and the value must
 * fit the type, otherwise an ErrorCode::kInvalidArgument Status
 * explains what was wrong with the input. parseDouble also rejects
 * nan and ±inf.
 */
Result<std::int64_t> parseInt64(const std::string &s);
Result<std::uint64_t> parseUint64(const std::string &s);
Result<double> parseDouble(const std::string &s);

} // namespace edgert

#endif // EDGERT_COMMON_STRUTIL_HH

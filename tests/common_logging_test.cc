/**
 * @file
 * Tests for the logging / error-reporting utilities.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"

namespace edgert {
namespace {

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad config: ", 42, " is not allowed");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: 42 is not allowed");
    }
}

TEST(Logging, FatalFormatsMixedTypes)
{
    try {
        fatal("x=", 1.5, " name=", std::string("abc"), " flag=",
              true);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=1.5 name=abc flag=1");
    }
}

TEST(Logging, WarnLevelSuppressesInform)
{
    LogLevel before = logLevel();
    std::vector<LogLevel> seen;
    setLogSink([&](LogLevel l, const std::string &) {
        seen.push_back(l);
    });
    setLogLevel(LogLevel::kWarn);
    inform("this is suppressed");
    warn("this is shown");
    setLogLevel(LogLevel::kInfo);
    inform("this is shown too");
    setLogSink({});
    setLogLevel(before);
    EXPECT_EQ(seen,
              (std::vector<LogLevel>{LogLevel::kWarn, LogLevel::kInfo}));
}

TEST(Logging, WarnDoesNotThrow)
{
    EXPECT_NO_THROW(warn("just a warning: ", 7));
}

TEST(Logging, FatalErrorIsRuntimeError)
{
    // Callers may catch at the std::runtime_error level.
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

} // namespace
} // namespace edgert

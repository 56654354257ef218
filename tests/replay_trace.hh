#ifndef EDGERT_TESTS_REPLAY_TRACE_HH
#define EDGERT_TESTS_REPLAY_TRACE_HH

/**
 * @file
 * Test helper: check a merged replay timeline written to trace_out.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace edgert::test {

/**
 * Reads and removes the chrome://tracing file at `path`, and expects
 * one device process with records for each of `devices` devices:
 * host spans are pid 1, device d is pid 2 + d, and nothing follows
 * the last device.
 */
inline void
expectOneProcessPerDevice(const std::string &path, std::size_t devices)
{
    std::ifstream f(path);
    ASSERT_TRUE(f) << path;
    std::stringstream ss;
    ss << f.rdbuf();
    f.close();
    std::remove(path.c_str());
    const std::string trace = ss.str();
    auto has = [&trace](const std::string &text) {
        return trace.find(text) != std::string::npos;
    };
    for (std::size_t d = 0; d <= devices; d++) {
        const std::string pid =
            "\"pid\":" + std::to_string(2 + d) + ",";
        EXPECT_EQ(has("\"ph\":\"M\"," + pid), d < devices) << d;
        EXPECT_EQ(has("\"ph\":\"X\"," + pid), d < devices) << d;
    }
}

} // namespace edgert::test

#endif // EDGERT_TESTS_REPLAY_TRACE_HH

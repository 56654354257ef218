/**
 * @file
 * Unit tests for statistics helpers, the text table renderer, the
 * binary I/O streams and the string utilities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/binio.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace edgert {
namespace {

TEST(RunningStat, MatchesDirectComputation)
{
    std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
    RunningStat rs;
    for (double x : xs)
        rs.add(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
    EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 16.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStat, MergeEqualsCombined)
{
    Rng rng(31);
    RunningStat a, b, all;
    for (int i = 0; i < 500; i++) {
        double x = rng.gaussian(3.0, 2.0);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Percentile, KnownValues)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, RejectsBadInput)
{
    EXPECT_THROW(percentile({}, 50), FatalError);
    EXPECT_THROW(percentile({1.0}, -1), FatalError);
    EXPECT_THROW(percentile({1.0}, 101), FatalError);
    EXPECT_THROW(percentileSorted({}, 50), FatalError);
    EXPECT_THROW(percentileSorted({1.0}, 101), FatalError);
}

TEST(Percentile, SortedReadsMatchTheCopyAndSortCall)
{
    // Sorting once and reading several percentiles gives the exact
    // doubles of one copy-and-sort call per percentile (the formula
    // below, spelled out), duplicates and a single sample included.
    auto copy_and_sort = [](std::vector<double> xs, double p) {
        std::sort(xs.begin(), xs.end());
        double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
        auto lo = static_cast<std::size_t>(rank);
        std::size_t hi = std::min(lo + 1, xs.size() - 1);
        double frac = rank - static_cast<double>(lo);
        return xs[lo] * (1.0 - frac) + xs[hi] * frac;
    };
    Rng rng(17);
    for (std::size_t n : {1, 2, 3, 7, 64, 101, 997}) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; i++)
            xs.push_back(rng.chance(0.3)
                             ? 2.5 * static_cast<double>(rng.below(4))
                             : rng.uniform(0.0, 100.0));
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        for (double p : {0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
            const double want = copy_and_sort(xs, p);
            EXPECT_EQ(percentileSorted(sorted, p), want) << n << " " << p;
            EXPECT_EQ(percentile(xs, p), want) << n << " " << p;
        }
    }
}

TEST(NormalQuantile, InvertsCdf)
{
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                     0.999}) {
        double x = normalQuantile(p);
        EXPECT_NEAR(normalCdf(x), p, 1e-9) << "p=" << p;
    }
}

TEST(NormalQuantile, KnownValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(normalQuantile(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(normalQuantile(0.025), -1.959964, 1e-5);
}

TEST(NormalQuantile, RejectsBounds)
{
    EXPECT_THROW(normalQuantile(0.0), FatalError);
    EXPECT_THROW(normalQuantile(1.0), FatalError);
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"a", "bb"});
    t.addRow({"xxx", "y"});
    std::string s = t.toString();
    EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(s.find("| xxx | y  |"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(BinIo, RoundTripScalarsAndStrings)
{
    BinWriter w;
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f32(3.5f);
    w.f64(-2.25);
    w.str("hello edge");

    BinReader r(w.bytes());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f32(), 3.5f);
    EXPECT_EQ(r.f64(), -2.25);
    EXPECT_EQ(r.str(), "hello edge");
    EXPECT_TRUE(r.atEnd());
}

TEST(BinIo, TruncatedStreamFails)
{
    BinWriter w;
    w.u32(1);
    BinReader r(w.bytes());
    r.u32();
    EXPECT_THROW(r.u32(), FatalError);
}

TEST(StrUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(StrUtil, FormatNanos)
{
    EXPECT_EQ(formatNanos(500), "500 ns");
    EXPECT_EQ(formatNanos(1500), "1.50 us");
    EXPECT_EQ(formatNanos(2'500'000), "2.50 ms");
}

TEST(StrUtil, MeanStdCell)
{
    EXPECT_EQ(meanStdCell(12.654, 0.051), "12.65(0.05)");
}

TEST(StrUtil, SplitAndStartsWith)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_TRUE(startsWith("trt_volta_h884", "trt_"));
    EXPECT_FALSE(startsWith("trt", "trt_"));
}

} // namespace
} // namespace edgert

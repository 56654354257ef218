#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

using namespace edgert;
using namespace edgert::obs;

TEST(MetricKey, CanonicalizesLabels)
{
    EXPECT_EQ(MetricRegistry::key("builder.builds", {}),
              "builder.builds");
    EXPECT_EQ(MetricRegistry::key(
                  "gpusim.memcpy.bytes",
                  {{"dir", "h2d"}, {"device", "NX"}}),
              "gpusim.memcpy.bytes{device=NX,dir=h2d}");
}

TEST(MetricRegistry, CounterAccumulates)
{
    MetricRegistry reg;
    Counter c = reg.counter("x.count", {{"k", "v"}});
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);
    // Same (name, labels) resolves to the same cell.
    EXPECT_EQ(reg.counter("x.count", {{"k", "v"}}).value(), 5);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, GaugeHoldsLastValue)
{
    MetricRegistry reg;
    Gauge g = reg.gauge("x.level_pct");
    g.set(12.5);
    g.set(90.0);
    EXPECT_DOUBLE_EQ(g.value(), 90.0);
}

TEST(MetricRegistry, KindClashIsFatal)
{
    MetricRegistry reg;
    reg.counter("x.mixed");
    EXPECT_THROW(reg.gauge("x.mixed"), FatalError);
    EXPECT_THROW(reg.histogram("x.mixed"), FatalError);
}

TEST(MetricRegistry, NullHandlesAreInert)
{
    Counter c;
    Gauge g;
    Histogram h;
    c.add();
    g.set(1.0);
    h.record(1.0);
    EXPECT_EQ(c.value(), 0);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, TracksSummaryStats)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    for (double v : {1.0, 10.0, 100.0})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 111.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, PercentilesAreBucketAccurate)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    // 99 samples 1..99: p50 ~ 50, p99 ~ 99. Log buckets are ~33%
    // wide (10^(1/8)), so allow that relative error.
    for (int i = 1; i <= 99; i++)
        h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(0.50), 50.0, 50.0 * 0.35);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 99.0 * 0.35);
    // Quantiles never leave the observed range.
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(1.0), 99.0);
}

TEST(Histogram, IgnoresNonFiniteSamples)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    h.record(std::nan(""));
    h.record(HUGE_VAL);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, ClosedFormBucketMatchesLowerBound)
{
    // The closed-form bucket index must agree with a binary search
    // over the bucket bounds for every finite value, including each
    // edge and its neighbours one ulp away.
    using Cell = metrics_detail::HistogramCell;
    std::vector<double> bounds;
    for (int i = 0; i < Cell::kBuckets; i++)
        bounds.push_back(Cell::upperBound(i));
    auto searched = [&](double v) {
        return static_cast<int>(
            std::lower_bound(bounds.begin(), bounds.end(), v) -
            bounds.begin());
    };
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values = {
        0.0, -0.0, -1.0, -1e300, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 1e-300, 1e300,
        std::numeric_limits<double>::max()};
    for (double b : bounds)
        for (double v : {std::nextafter(b, -inf), b, std::nextafter(b, inf)})
            values.push_back(v);
    for (double v : values)
        EXPECT_EQ(Cell::bucketIndex(v), searched(v)) << v;

    // A million seeded samples spread log-uniformly over the bucket
    // range and a decade beyond each end.
    std::mt19937_64 rng(20);
    std::uniform_real_distribution<double> exponent(-4.0, 10.0);
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; i++) {
        const double v = std::pow(10.0, exponent(rng));
        if (Cell::bucketIndex(v) != searched(v))
            mismatches++;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(MetricRegistry, ResetZeroesButKeepsHandles)
{
    MetricRegistry reg;
    Counter c = reg.counter("x.count");
    Histogram h = reg.histogram("x.duration_us");
    c.add(7);
    h.record(3.0);
    reg.reset();
    EXPECT_EQ(c.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(reg.size(), 2u); // keys survive reset
    c.add(); // handle still live
    EXPECT_EQ(c.value(), 1);
}

TEST(MetricRegistry, SnapshotIsValidJson)
{
    MetricRegistry reg;
    reg.counter("b.count", {{"device", "Xavier NX"}}).add(2);
    reg.gauge("a.level_pct").set(37.5);
    reg.histogram("c.duration_us", {{"pass", "fu\"sion\n"}})
        .record(4.2);
    std::string err;
    EXPECT_TRUE(jsonValid(reg.toJson(), &err)) << err;
}

TEST(MetricRegistry, SnapshotIsByteIdenticalForEqualState)
{
    auto populate = [](MetricRegistry &reg) {
        reg.counter("b.count", {{"device", "NX"}}).add(3);
        reg.gauge("a.util_pct").set(66.625);
        Histogram h = reg.histogram("c.duration_us");
        for (double v : {0.5, 1.0 / 3.0, 12.0, 480.0})
            h.record(v);
    };
    MetricRegistry r1, r2;
    populate(r1);
    populate(r2);
    EXPECT_EQ(r1.toJson(), r2.toJson());

    // Registration order must not leak into the snapshot.
    MetricRegistry r3;
    r3.gauge("a.util_pct").set(66.625);
    Histogram h = r3.histogram("c.duration_us");
    for (double v : {0.5, 1.0 / 3.0, 12.0, 480.0})
        h.record(v);
    r3.counter("b.count", {{"device", "NX"}}).add(3);
    EXPECT_EQ(r1.toJson(), r3.toJson());
}

TEST(MetricRegistry, CountersAreThreadSafe)
{
    MetricRegistry reg;
    Counter c = reg.counter("x.count");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++)
        threads.emplace_back([&] {
            for (int i = 0; i < 10000; i++)
                c.add();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), 40000);
}

TEST(MetricRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

TEST(Histogram, SmallSamplePercentilesAreExact)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    // Well under kExactCap: nearest-rank over the raw values, not
    // the ~33%-wide geometric-midpoint bucket estimate.
    for (double v : {7.0, 3.0, 11.0, 5.0, 9.0})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 11.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 11.0);
}

TEST(Histogram, ExactnessEndsPastTheCap)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    int cap = metrics_detail::HistogramCell::kExactCap;
    for (int i = 1; i <= cap; i++)
        h.record(static_cast<double>(i));
    // At the cap the median is still the exact nearest-rank value.
    EXPECT_DOUBLE_EQ(h.percentile(0.50),
                     static_cast<double>(cap / 2));

    std::string at_cap = reg.toJson();
    EXPECT_NE(at_cap.find("\"exact\": true"), std::string::npos);

    h.record(static_cast<double>(cap + 1));
    std::string past_cap = reg.toJson();
    EXPECT_NE(past_cap.find("\"exact\": false"),
              std::string::npos);
    // Estimation degrades gracefully to the bucketed path.
    EXPECT_NEAR(h.percentile(0.50),
                static_cast<double>(cap) / 2.0,
                static_cast<double>(cap) / 2.0 * 0.35);
}

TEST(Histogram, BatchRecordMatchesOneByOneRecords)
{
    // recordBatch takes the cell's lock once, yet must leave it
    // byte-identical to one record() per value — sum included — on an
    // empty cell and on a non-empty one, skipping NaN and +/-inf, both
    // inside the exact reservoir and across its cap.
    const int cap = metrics_detail::HistogramCell::kExactCap;
    for (int prefix : {0, 10}) {
        for (int n : {20, cap + 20}) {
            std::vector<double> batch;
            for (int i = 0; i < n; i++)
                batch.push_back(0.1 * ((i * 37) % 101) + 1e-3 * i);
            batch[3] = std::nan("");
            batch[7] = INFINITY;
            batch[11] = -INFINITY;
            MetricRegistry one, bat;
            Histogram a = one.histogram("x.duration_us");
            Histogram b = bat.histogram("x.duration_us");
            for (int i = 0; i < prefix; i++) {
                a.record(0.3 * i + 0.7);
                b.record(0.3 * i + 0.7);
            }
            for (double v : batch)
                a.record(v);
            b.recordBatch(batch);
            const std::string want = one.toJson();
            EXPECT_EQ(bat.toJson(), want) << prefix << "+" << n;
            EXPECT_EQ(b.count(),
                      static_cast<std::uint64_t>(prefix + n - 3));
            const bool exact = prefix + n - 3 <= cap;
            EXPECT_NE(want.find(exact ? "\"exact\": true"
                                      : "\"exact\": false"),
                      std::string::npos);
        }
    }
}

TEST(Histogram, ResetRestoresExactness)
{
    MetricRegistry reg;
    Histogram h = reg.histogram("x.duration_us");
    int cap = metrics_detail::HistogramCell::kExactCap;
    for (int i = 0; i < cap + 10; i++)
        h.record(1.0);
    reg.reset();
    h.record(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 42.0);
    EXPECT_NE(reg.toJson().find("\"exact\": true"),
              std::string::npos);
}

TEST(PromText, RendersCountersGaugesAndSummaries)
{
    MetricRegistry reg;
    reg.counter("serve.requests.total", {{"model", "alexnet"}})
        .add(12);
    reg.gauge("serve.device.util_pct").set(37.5);
    Histogram h =
        reg.histogram("serve.latency_ms", {{"model", "alexnet"}});
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.record(v);

    std::string text = reg.toPromText();
    EXPECT_NE(text.find("# TYPE serve_requests_total counter\n"
                        "serve_requests_total{model=\"alexnet\"} "
                        "12\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_device_util_pct gauge\n"
                        "serve_device_util_pct 37.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_latency_ms summary"),
              std::string::npos);
    EXPECT_NE(
        text.find("serve_latency_ms{model=\"alexnet\","
                  "quantile=\"0.5\"} 2\n"),
        std::string::npos);
    EXPECT_NE(text.find("serve_latency_ms_sum{model=\"alexnet\"} "
                        "10\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("serve_latency_ms_count{model=\"alexnet\"} 4\n"),
        std::string::npos);
}

TEST(PromText, OneTypeLinePerFamilyAcrossLabelSets)
{
    MetricRegistry reg;
    reg.counter("b.count", {{"device", "NX"}}).add(1);
    // Canonical key order puts `b.countx` between `b.count{...}`
    // rows only in JSON; prom output must still group the family.
    reg.counter("b.countx").add(2);
    reg.counter("b.count", {{"device", "AGX"}}).add(3);

    std::string text = reg.toPromText();
    std::size_t first = text.find("# TYPE b_count counter");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE b_count counter", first + 1),
              std::string::npos);
    EXPECT_NE(text.find("b_count{device=\"AGX\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("b_count{device=\"NX\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE b_countx counter"),
              std::string::npos);
}

TEST(PromText, EscapesLabelValuesAndSanitizesNames)
{
    MetricRegistry reg;
    reg.counter("serve.engine.load_failures",
                {{"model", "res\"net\\v2\nx"}})
        .add(1);
    std::string text = reg.toPromText();
    EXPECT_NE(text.find("serve_engine_load_failures{model="
                        "\"res\\\"net\\\\v2\\nx\"} 1"),
              std::string::npos);
}

// ---------------------------------------------------------------
// mergeFrom: fleet-wide snapshot assembly from per-node registries.
// ---------------------------------------------------------------

TEST(MergeFrom, CountersAdd)
{
    MetricRegistry dst, src;
    dst.counter("serve.completed").add(10);
    src.counter("serve.completed").add(5);
    src.counter("serve.shed").add(2);
    dst.mergeFrom(src);
    EXPECT_EQ(dst.counter("serve.completed").value(), 15);
    EXPECT_EQ(dst.counter("serve.shed").value(), 2);
}

TEST(MergeFrom, GaugesLastMergeWins)
{
    MetricRegistry dst, a, b;
    dst.gauge("fleet.depth").set(1.0);
    a.gauge("fleet.depth").set(7.0);
    b.gauge("fleet.depth").set(3.0);
    dst.mergeFrom(a);
    dst.mergeFrom(b);
    EXPECT_DOUBLE_EQ(dst.gauge("fleet.depth").value(), 3.0);
}

TEST(MergeFrom, HistogramsCombine)
{
    MetricRegistry dst, src;
    Histogram hd = dst.histogram("lat.ms");
    Histogram hs = src.histogram("lat.ms");
    hd.record(1.0);
    hd.record(2.0);
    hs.record(0.5);
    hs.record(8.0);
    dst.mergeFrom(src);
    EXPECT_EQ(hd.count(), 4u);
    EXPECT_DOUBLE_EQ(hd.sum(), 11.5);
    EXPECT_DOUBLE_EQ(hd.min(), 0.5);
    EXPECT_DOUBLE_EQ(hd.max(), 8.0);
    // Both sides under the exact cap: percentiles stay nearest-rank.
    EXPECT_DOUBLE_EQ(hd.percentile(100.0), 8.0);
}

TEST(MergeFrom, PrefixNamespacesEveryKind)
{
    MetricRegistry dst, src;
    src.counter("done", {{"model", "alexnet"}}).add(3);
    src.gauge("depth").set(2.0);
    src.histogram("lat").record(1.0);
    dst.mergeFrom(src, "fleet.nx0.");
    EXPECT_EQ(
        dst.counter("fleet.nx0.done", {{"model", "alexnet"}}).value(),
        3);
    EXPECT_DOUBLE_EQ(dst.gauge("fleet.nx0.depth").value(), 2.0);
    EXPECT_EQ(dst.histogram("fleet.nx0.lat").count(), 1u);
    // Source untouched, unprefixed keys absent from the target.
    EXPECT_EQ(src.counter("done", {{"model", "alexnet"}}).value(), 3);
    EXPECT_EQ(dst.counter("done", {{"model", "alexnet"}}).value(), 0);
}

TEST(MergeFrom, DeterministicLabelOrdering)
{
    // Labels registered in different orders must land on the same
    // canonical key, so merged snapshots are byte-stable.
    MetricRegistry a, b, src1, src2;
    src1.counter("c", {{"x", "1"}, {"y", "2"}}).add(1);
    src2.counter("c", {{"y", "2"}, {"x", "1"}}).add(1);
    a.mergeFrom(src1, "p.");
    b.mergeFrom(src2, "p.");
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(MergeFrom, MergeIsDeterministicJson)
{
    auto build = []() {
        MetricRegistry dst;
        MetricRegistry n0, n1;
        n0.counter("serve.completed").add(4);
        n0.histogram("lat.ms").record(1.5);
        n1.counter("serve.completed").add(6);
        n1.histogram("lat.ms").record(2.5);
        dst.mergeFrom(n0, "fleet.a.");
        dst.mergeFrom(n1, "fleet.b.");
        return dst.toJson();
    };
    EXPECT_EQ(build(), build());
}

TEST(MergeFrom, CrossKindCollisionIsFatal)
{
    MetricRegistry dst, src;
    dst.counter("thing").add(1);
    src.gauge("thing").set(1.0);
    EXPECT_THROW(dst.mergeFrom(src), FatalError);
}

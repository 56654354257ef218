/**
 * @file
 * EdgeStream tests: seeded frame sources (determinism and lineage
 * independence), StreamQueue backpressure semantics, freshness
 * conservation accounting, and the end-to-end runStreams contract —
 * per-policy frame conservation, skip_to_latest beating block on
 * stale-frame rate at overload, and byte-identical reports across
 * same-seed runs and serial vs threaded replay.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "stream/freshness.hh"
#include "stream/pipeline.hh"
#include "stream/source.hh"
#include "stream/stream.hh"

namespace edgert::stream {
namespace {

TEST(FrameSource, FixedFpsTicksAtTheNominalGap)
{
    FrameSourceConfig cfg;
    cfg.kind = FrameArrival::kFixedFps;
    cfg.fps = 30.0;
    Rng rng(7);
    auto times = generateFrameTimes(cfg, 2.0, rng);
    ASSERT_FALSE(times.empty());
    // Phase in [0, gap), then rock-steady gaps.
    EXPECT_GE(times.front(), 0.0);
    EXPECT_LT(times.front(), 1.0 / 30.0);
    for (std::size_t i = 1; i < times.size(); i++)
        EXPECT_NEAR(times[i] - times[i - 1], 1.0 / 30.0, 1e-12);
    EXPECT_LT(times.back(), 2.0);
    // ~60 frames in 2 s at 30 fps (the phase can shave one).
    EXPECT_NEAR(static_cast<double>(times.size()), 60.0, 1.0);
}

TEST(FrameSource, JitteredCameraKeepsMeanRateAndMonotonicity)
{
    FrameSourceConfig cfg;
    cfg.kind = FrameArrival::kJitteredCamera;
    cfg.fps = 30.0;
    cfg.jitter_pct = 20.0;
    Rng rng(7);
    auto times = generateFrameTimes(cfg, 10.0, rng);
    ASSERT_FALSE(times.empty());
    for (std::size_t i = 1; i < times.size(); i++)
        EXPECT_GT(times[i], times[i - 1]);
    // Mean rate within a few percent of nominal over 10 s.
    EXPECT_NEAR(static_cast<double>(times.size()), 300.0, 15.0);
}

TEST(FrameSource, SameSeedSameTimesDifferentSeedDifferent)
{
    FrameSourceConfig cfg;
    cfg.kind = FrameArrival::kJitteredCamera;
    Rng a(11), b(11), c(12);
    auto ta = generateFrameTimes(cfg, 3.0, a);
    auto tb = generateFrameTimes(cfg, 3.0, b);
    auto tc = generateFrameTimes(cfg, 3.0, c);
    EXPECT_EQ(ta, tb);
    EXPECT_NE(ta, tc);
}

TEST(FrameSource, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseFrameArrival("fixed"), FrameArrival::kFixedFps);
    EXPECT_EQ(parseFrameArrival("jitter"),
              FrameArrival::kJitteredCamera);
    EXPECT_EQ(frameArrivalName(FrameArrival::kFixedFps), "fixed");
    EXPECT_EQ(frameArrivalName(FrameArrival::kJitteredCamera),
              "jitter");
    EXPECT_THROW(parseFrameArrival("poisson"), FatalError);
}

TEST(BackpressurePolicy, ParseAndNameRoundTrip)
{
    for (auto p : {BackpressurePolicy::kDropOldest,
                   BackpressurePolicy::kSkipToLatest,
                   BackpressurePolicy::kBlock})
        EXPECT_EQ(parseBackpressurePolicy(backpressurePolicyName(p)),
                  p);
    EXPECT_THROW(parseBackpressurePolicy("shed"), FatalError);
}

TEST(StreamQueue, DropOldestEvictsBeyondTheBudgetPerStream)
{
    StreamQueue q(2);
    const auto policy = BackpressurePolicy::kDropOldest;
    // Stream 0 fills its budget of 2...
    EXPECT_TRUE(q.push(0, 0, 0.00, policy, 2).empty());
    EXPECT_TRUE(q.push(1, 0, 0.01, policy, 2).empty());
    // ...stream 1's frames never count against stream 0's budget...
    EXPECT_TRUE(q.push(2, 1, 0.02, policy, 2).empty());
    // ...and the next stream-0 frame evicts stream 0's oldest.
    auto evicted = q.push(3, 0, 0.03, policy, 2);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.queuedOf(0), 2);
    EXPECT_EQ(q.queuedOf(1), 1);
    // FIFO across streams, tombstones skipped: 1, 2, 3.
    EXPECT_EQ(q.frontId(), 1);
    EXPECT_EQ(q.cut(3), (std::vector<std::int64_t>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(StreamQueue, SkipToLatestKeepsExactlyTheNewestFrame)
{
    StreamQueue q(2);
    const auto policy = BackpressurePolicy::kSkipToLatest;
    EXPECT_TRUE(q.push(0, 0, 0.00, policy, 4).empty());
    EXPECT_EQ(q.push(1, 0, 0.01, policy, 4),
              (std::vector<std::int64_t>{0}));
    EXPECT_EQ(q.push(2, 0, 0.02, policy, 4),
              (std::vector<std::int64_t>{1}));
    EXPECT_TRUE(q.push(3, 1, 0.03, policy, 4).empty());
    EXPECT_EQ(q.queuedOf(0), 1);
    EXPECT_EQ(q.queuedOf(1), 1);
    EXPECT_EQ(q.oldestReadySeconds(), 0.02);
    EXPECT_EQ(q.cut(2), (std::vector<std::int64_t>{2, 3}));
}

TEST(StreamQueue, BlockNeverEvictsAndDrainReturnsLeftovers)
{
    StreamQueue q(1);
    const auto policy = BackpressurePolicy::kBlock;
    for (int i = 0; i < 100; i++)
        EXPECT_TRUE(
            q.push(i, 0, i * 0.01, policy, 1).empty());
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(q.cut(10),
              (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8,
                                         9}));
    auto rest = q.drain();
    EXPECT_EQ(rest.size(), 90u);
    EXPECT_EQ(rest.front(), 10);
    EXPECT_EQ(rest.back(), 99);
    EXPECT_TRUE(q.empty());
}

TEST(FreshnessTracker, StaleAccountingAndConservation)
{
    FreshnessTracker t(2, 50.0);
    t.onProduced(0);
    t.onProduced(0);
    t.onProduced(0);
    t.onProduced(1);
    t.onCompleted(0, 20.0); // fresh
    t.onCompleted(0, 80.0); // stale
    t.onDropped(0);
    t.onLeftInFlight(1);
    EXPECT_TRUE(t.conserved());

    FreshnessStats s0 = t.streamStats(0);
    EXPECT_EQ(s0.produced, 3);
    EXPECT_EQ(s0.completed, 2);
    EXPECT_EQ(s0.dropped, 1);
    EXPECT_EQ(s0.stale_completed, 1);
    // (1 drop + 1 stale) / 3 terminal outcomes.
    EXPECT_NEAR(s0.stale_rate_pct, 100.0 * 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(s0.age_mean_ms, 50.0, 1e-9);
    EXPECT_NEAR(s0.age_max_ms, 80.0, 1e-9);

    FreshnessStats total = t.totalStats();
    EXPECT_EQ(total.produced, 4);
    EXPECT_EQ(total.in_flight, 1);

    // A completion the producer never saw breaks conservation.
    t.onCompleted(1, 10.0);
    EXPECT_FALSE(t.conserved());
}

// ---------------------------------------------------------------
// End-to-end runStreams contract.
// ---------------------------------------------------------------

StreamConfig
overloadScenario(BackpressurePolicy policy)
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = 1.5;
    cfg.seed = 1;
    StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    mc.streams = 16; // far past one NX's capacity at fp16
    mc.fps = 30.0;
    mc.stale_ms = 100.0;
    mc.policy = policy;
    cfg.models.push_back(mc);
    return cfg;
}

TEST(RunStreams, EveryPolicyConservesFramesUnderOverload)
{
    for (auto policy : {BackpressurePolicy::kDropOldest,
                        BackpressurePolicy::kSkipToLatest,
                        BackpressurePolicy::kBlock}) {
        StreamReport rep = runStreams(overloadScenario(policy));
        ASSERT_EQ(rep.models.size(), 1u);
        const StreamModelStats &m = rep.models.front();
        EXPECT_TRUE(m.conserved)
            << backpressurePolicyName(policy);
        EXPECT_EQ(m.freshness.produced,
                  m.freshness.completed + m.freshness.dropped +
                      m.freshness.in_flight)
            << backpressurePolicyName(policy);
        // Per-lane conservation too, and lanes sum to the total.
        std::int64_t produced = 0;
        for (const StreamLaneStats &lane : m.lanes) {
            EXPECT_EQ(lane.freshness.produced,
                      lane.freshness.completed +
                          lane.freshness.dropped +
                          lane.freshness.in_flight);
            produced += lane.freshness.produced;
        }
        EXPECT_EQ(produced, m.freshness.produced);
        if (policy == BackpressurePolicy::kBlock) {
            // block never drops; the backlog ages in flight.
            EXPECT_EQ(m.freshness.dropped, 0);
            EXPECT_GT(m.freshness.in_flight, 0);
        } else {
            // the shedding policies must actually shed here.
            EXPECT_GT(m.freshness.dropped, 0);
        }
    }
}

TEST(RunStreams, SkipToLatestBeatsBlockOnStaleRateAtOverload)
{
    StreamReport skip = runStreams(
        overloadScenario(BackpressurePolicy::kSkipToLatest));
    StreamReport block =
        runStreams(overloadScenario(BackpressurePolicy::kBlock));
    EXPECT_LT(skip.models.front().freshness.stale_rate_pct,
              block.models.front().freshness.stale_rate_pct);
    // Freshness pages must fire under overload and land in the
    // report rollup.
    EXPECT_GT(skip.freshness.pages, 0);
    EXPECT_GE(skip.freshness.first_page_s, 0.0);
}

TEST(RunStreams, UnderProvisionedRunStaysFreshAndQuiet)
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = 1.5;
    StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    mc.streams = 2;
    mc.fps = 20.0;
    mc.stale_ms = 100.0;
    cfg.models.push_back(mc);
    StreamReport rep = runStreams(cfg);
    const StreamModelStats &m = rep.models.front();
    EXPECT_TRUE(m.conserved);
    EXPECT_EQ(m.freshness.dropped, 0);
    EXPECT_DOUBLE_EQ(m.freshness.stale_rate_pct, 0.0);
    EXPECT_EQ(rep.freshness.pages, 0);
    EXPECT_DOUBLE_EQ(rep.freshness.first_page_s, -1.0);
    // The staged pipeline attributes every stage: decode and
    // preprocess means sit near their configured costs.
    EXPECT_NEAR(m.decode_mean_ms, mc.stages.decode_ms,
                mc.stages.decode_ms);
    EXPECT_GT(m.infer_mean_ms.compute, 0.0);
    EXPECT_GT(m.postprocess_mean_ms, 0.0);
}

TEST(RunStreams, SameSeedRunsAreByteIdentical)
{
    StreamConfig cfg =
        overloadScenario(BackpressurePolicy::kSkipToLatest);
    EXPECT_EQ(runStreams(cfg).toJson(), runStreams(cfg).toJson());
}

TEST(RunStreams, SerialAndThreadedReplayAreByteIdentical)
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.devices.push_back(serve::parseDevice("agx"));
    cfg.duration_s = 1.5;
    StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    mc.streams = 8;
    mc.fps = 30.0;
    cfg.models.push_back(mc);

    // Report and registry snapshot of one run from a fresh registry.
    // No clock is pinned: the registry holds no host time.
    auto run = [&cfg](int threads) {
        obs::MetricRegistry::global().reset();
        cfg.sim_threads = threads;
        std::string report = runStreams(cfg).toJson();
        return std::make_pair(report,
                              obs::MetricRegistry::global().toJson());
    };
    auto serial = run(1);
    auto threaded = run(4);
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(serial.second, threaded.second);
}

TEST(RunStreams, DuplicateModelNamesAreFatal)
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    cfg.models.push_back(mc);
    cfg.models.push_back(mc);
    EXPECT_THROW(runStreams(cfg), FatalError);
}

} // namespace
} // namespace edgert::stream

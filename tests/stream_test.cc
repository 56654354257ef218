/**
 * @file
 * EdgeStream tests: seeded frame sources (determinism and lineage
 * independence), StreamQueue backpressure semantics, freshness
 * conservation accounting, and the end-to-end runStreams contract —
 * per-policy frame conservation, skip_to_latest beating block on
 * stale-frame rate at overload, byte-identical reports across
 * same-seed runs and serial vs threaded replay, a device trace
 * recorded only for trace_out, and pinned report fields that the
 * per-camera frame passes (and sortNearlySorted, which orders them)
 * must reproduce bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sort.hh"
#include "gpusim/sim.hh"
#include "obs/metrics.hh"
#include "replay_trace.hh"
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

/** The ids one push() evicts. push appends them to the caller's
 *  buffer, so the buffer starts with an entry it must leave alone. */
std::vector<std::int64_t>
pushEvicts(StreamQueue &q, std::int64_t id, int stream, double ready_s,
           BackpressurePolicy policy, int budget)
{
    std::vector<std::int64_t> buf = {-7};
    q.push(id, stream, ready_s, policy, budget, buf);
    EXPECT_EQ(buf.front(), -7);
    return {buf.begin() + 1, buf.end()};
}

/** The ids one cut() dequeues, appended to a pool that already holds
 *  an entry. */
std::vector<std::int64_t>
cutIds(StreamQueue &q, int n)
{
    std::vector<std::int64_t> pool = {-7};
    q.cut(n, pool);
    EXPECT_EQ(pool.front(), -7);
    return {pool.begin() + 1, pool.end()};
}

TEST(StreamQueue, DropOldestEvictsBeyondTheBudgetPerStream)
{
    StreamQueue q(2);
    const auto policy = BackpressurePolicy::kDropOldest;
    // Stream 0 fills its budget of 2...
    EXPECT_TRUE(pushEvicts(q, 0, 0, 0.00, policy, 2).empty());
    EXPECT_TRUE(pushEvicts(q, 1, 0, 0.01, policy, 2).empty());
    // ...stream 1's frames never count against stream 0's budget...
    EXPECT_TRUE(pushEvicts(q, 2, 1, 0.02, policy, 2).empty());
    // ...and the next stream-0 frame evicts stream 0's oldest.
    auto evicted = pushEvicts(q, 3, 0, 0.03, policy, 2);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.queuedOf(0), 2);
    EXPECT_EQ(q.queuedOf(1), 1);
    // FIFO across streams, tombstones skipped: 1, 2, 3.
    EXPECT_EQ(q.frontId(), 1);
    EXPECT_EQ(cutIds(q, 3), (std::vector<std::int64_t>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(StreamQueue, SkipToLatestKeepsExactlyTheNewestFrame)
{
    StreamQueue q(2);
    const auto policy = BackpressurePolicy::kSkipToLatest;
    EXPECT_TRUE(pushEvicts(q, 0, 0, 0.00, policy, 4).empty());
    EXPECT_EQ(pushEvicts(q, 1, 0, 0.01, policy, 4),
              (std::vector<std::int64_t>{0}));
    EXPECT_EQ(pushEvicts(q, 2, 0, 0.02, policy, 4),
              (std::vector<std::int64_t>{1}));
    EXPECT_TRUE(pushEvicts(q, 3, 1, 0.03, policy, 4).empty());
    EXPECT_EQ(q.queuedOf(0), 1);
    EXPECT_EQ(q.queuedOf(1), 1);
    EXPECT_EQ(q.oldestReadySeconds(), 0.02);
    EXPECT_EQ(cutIds(q, 2), (std::vector<std::int64_t>{2, 3}));
}

TEST(StreamQueue, BlockNeverEvictsAndCutReturnsLeftovers)
{
    StreamQueue q(1);
    const auto policy = BackpressurePolicy::kBlock;
    for (int i = 0; i < 100; i++)
        EXPECT_TRUE(
            pushEvicts(q, i, 0, i * 0.01, policy, 1).empty());
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(cutIds(q, 10),
              (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8,
                                         9}));
    auto rest = cutIds(q, static_cast<int>(q.size()));
    EXPECT_EQ(rest.size(), 90u);
    EXPECT_EQ(rest.front(), 10);
    EXPECT_EQ(rest.back(), 99);
    EXPECT_TRUE(q.empty());
}

TEST(StreamQueue, MatchesPushOrderMinusEvictionsUnderRandomOps)
{
    // Brute-force reference: every admitted frame in push order;
    // evictions remove a camera's oldest, cuts take the list head.
    struct RefFrame
    {
        std::int64_t id;
        int camera;
        double ready_s;
    };
    const int cameras = 9;
    const int budget = 3;
    for (auto policy :
         {BackpressurePolicy::kDropOldest,
          BackpressurePolicy::kSkipToLatest,
          BackpressurePolicy::kBlock}) {
        SCOPED_TRACE(backpressurePolicyName(policy));
        Rng rng(1234 + static_cast<std::uint64_t>(policy));
        StreamQueue q(cameras);
        std::vector<RefFrame> ref;
        // One eviction buffer and one id pool for the whole run, as
        // the control plane keeps them; each call appends to them.
        std::vector<std::int64_t> evicted;
        std::vector<std::int64_t> pool;
        std::int64_t next_id = 0;
        for (int step = 0; step < 3000; step++) {
            if (ref.empty() || rng.chance(0.75)) {
                const int cam = static_cast<int>(rng.below(cameras));
                // Ready times are not monotone in push order: the
                // queue must report the oldest pushed frame's.
                const double ready = rng.uniform(0.0, 10.0);
                std::size_t keep = ref.size();
                if (policy == BackpressurePolicy::kDropOldest)
                    keep = budget - 1;
                else if (policy == BackpressurePolicy::kSkipToLatest)
                    keep = 0;
                std::vector<std::int64_t> want_evicted;
                std::size_t mine = 0;
                for (const RefFrame &f : ref)
                    mine += f.camera == cam ? 1 : 0;
                for (auto it = ref.begin();
                     mine > keep && it != ref.end();) {
                    if (it->camera == cam) {
                        want_evicted.push_back(it->id);
                        it = ref.erase(it);
                        mine--;
                    } else {
                        ++it;
                    }
                }
                ref.push_back({next_id, cam, ready});
                const std::size_t had = evicted.size();
                q.push(next_id, cam, ready, policy, budget, evicted);
                ASSERT_EQ(std::vector<std::int64_t>(
                              evicted.begin() +
                                  static_cast<std::ptrdiff_t>(had),
                              evicted.end()),
                          want_evicted);
                next_id++;
            } else {
                const auto n = static_cast<int>(
                    1 + rng.below(std::min<std::size_t>(ref.size(), 5)));
                std::vector<std::int64_t> want;
                for (int i = 0; i < n; i++)
                    want.push_back(ref[static_cast<std::size_t>(i)].id);
                ref.erase(ref.begin(), ref.begin() + n);
                const std::size_t had = pool.size();
                q.cut(n, pool);
                ASSERT_EQ(std::vector<std::int64_t>(
                              pool.begin() +
                                  static_cast<std::ptrdiff_t>(had),
                              pool.end()),
                          want);
            }
            ASSERT_EQ(q.size(), ref.size());
            ASSERT_EQ(q.empty(), ref.empty());
            if (!ref.empty()) {
                ASSERT_EQ(q.frontId(), ref.front().id);
                ASSERT_EQ(q.oldestReadySeconds(), ref.front().ready_s);
            }
            for (int c = 0; c < cameras; c++) {
                int want = 0;
                for (const RefFrame &f : ref)
                    want += f.camera == c ? 1 : 0;
                ASSERT_EQ(q.queuedOf(c), want) << "camera " << c;
            }
        }
        EXPECT_GT(next_id, 1500);
    }
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
// sortNearlySorted: the (ready, id) and (done, id) orders.
// ---------------------------------------------------------------

TEST(SortNearlySorted, MatchesStdSortOnEveryShape)
{
    Rng rng(11);
    std::vector<std::vector<int>> inputs(3);
    for (int i = 0; i < 5000; i++) {
        inputs[0].push_back(static_cast<int>(rng.below(1000)));
        inputs[1].push_back(5000 - i);
        // Each value a few places from its slot.
        inputs[2].push_back(i + static_cast<int>(rng.below(8)));
    }
    for (std::vector<int> v : inputs) {
        std::vector<int> want = v;
        std::sort(want.begin(), want.end());
        sortNearlySorted(v.begin(), v.end());
        EXPECT_EQ(v, want);
    }
    // The nearly sorted input needs no fallback.
    EXPECT_TRUE(sortNearlySorted(inputs[2].begin(), inputs[2].end()));
}

TEST(SortNearlySorted, ReversedInputFallsBackWithinItsShiftBudget)
{
    // Fully reversed, the insertion pass would compare n^2/2 times;
    // it must give up after its shift budget and leave the rest to
    // std::sort (O(n log n) more comparisons).
    const std::size_t n = 20000;
    std::vector<int> v(n);
    for (std::size_t i = 0; i < n; i++)
        v[i] = static_cast<int>(n - i);
    std::size_t compares = 0;
    EXPECT_FALSE(sortNearlySorted(v.begin(), v.end(),
                                  [&compares](int a, int b) {
                                      compares++;
                                      return a < b;
                                  }));
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    const std::size_t budget = kNearlySortedShiftsPerItem * n;
    EXPECT_LE(compares, budget + n + 64 * n);
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

/** Eight cameras on both devices. */
StreamConfig
twoDeviceCameras()
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
    return cfg;
}

/** Report and registry snapshot of one run from a fresh registry.
 *  No clock is pinned: the registry holds no host time. */
std::pair<std::string, std::string>
snapshotRun(const StreamConfig &cfg)
{
    obs::MetricRegistry::global().reset();
    std::string report = runStreams(cfg).toJson();
    return {report, obs::MetricRegistry::global().toJson()};
}

TEST(RunStreams, SerialAndThreadedReplayAreByteIdentical)
{
    StreamConfig cfg = twoDeviceCameras();
    cfg.sim_threads = 1;
    auto serial = snapshotRun(cfg);
    cfg.sim_threads = 4;
    auto threaded = snapshotRun(cfg);
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(serial.second, threaded.second);
}

// Only the trace_out timeline reads the replay's device traces, so
// without it the trace mode reaches neither the report nor the
// snapshot, whose sim.arena.bytes counts each simulator's trace
// capacity.
TEST(RunStreams, TraceModeWithoutADumpChangesNothing)
{
    StreamConfig cfg = twoDeviceCameras();
    cfg.trace_mode = gpusim::TraceMode::kFull;
    auto full = snapshotRun(cfg);
    cfg.trace_mode = gpusim::TraceMode::kOff;
    auto off = snapshotRun(cfg);
    EXPECT_EQ(full.first, off.first);
    EXPECT_EQ(full.second, off.second);
}

// A dumped timeline holds one device process per device, each with
// records, and dumping it leaves the report as it was.
TEST(RunStreams, DumpedTraceHoldsEveryDevice)
{
    StreamConfig cfg = twoDeviceCameras();
    const std::string plain = runStreams(cfg).toJson();
    cfg.trace_out = (std::filesystem::path(::testing::TempDir()) /
                     "stream_trace.json")
                        .string();
    EXPECT_EQ(runStreams(cfg).toJson(), plain);
    test::expectOneProcessPerDevice(cfg.trace_out, cfg.devices.size());
}

// Two runs whose fields are pinned bit for bit. The literals were
// captured (printf "%a") when the frame table was sorted whole by
// capture time, by (model, stream, done, seq) for the postprocess
// chains and by (t, rank, id) for the freshness feed.
StreamConfig
pinnedTwoModelOverload()
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.devices.push_back(serve::parseDevice("agx"));
    cfg.duration_s = 1.5;
    cfg.seed = 7;
    cfg.sim_threads = 2;
    StreamModelConfig a;
    a.model = "tiny-yolov3";
    a.streams = 32;
    a.arrival = FrameArrival::kJitteredCamera;
    a.policy = BackpressurePolicy::kSkipToLatest;
    StreamModelConfig b = a;
    b.model = "mobilenetv1";
    b.streams = 16;
    b.policy = BackpressurePolicy::kDropOldest;
    cfg.models = {a, b};
    return cfg;
}

/** tiny-yolov3 decodes in 60 ms per 33 ms frame gap, so its
 *  cameras' decoders fall further behind while mobilenetv1's keep
 *  up: ready order drifts far from capture order, and the arrival
 *  sort leaves insertion for std::sort. */
StreamConfig
pinnedDecodeBacklog()
{
    StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = 1.5;
    cfg.seed = 3;
    StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    mc.streams = 8;
    mc.arrival = FrameArrival::kJitteredCamera;
    mc.stages.decode_ms = 60.0;
    StreamModelConfig fast = mc;
    fast.model = "mobilenetv1";
    fast.stages.decode_ms = 2.0;
    cfg.models = {mc, fast};
    return cfg;
}

struct PinnedModel
{
    std::int64_t completed, dropped;
    double age_p50, age_p99, age_max;
    double decode, preprocess, queue, dispatch_wait, upload, compute,
        download, postprocess;
};

void
expectPinned(const StreamReport &rep,
             const std::vector<PinnedModel> &models,
             std::int64_t pages, double first_page_s)
{
    ASSERT_EQ(rep.models.size(), models.size());
    for (std::size_t i = 0; i < models.size(); i++) {
        const StreamModelStats &m = rep.models[i];
        const PinnedModel &p = models[i];
        SCOPED_TRACE(m.model);
        EXPECT_EQ(m.freshness.completed, p.completed);
        EXPECT_EQ(m.freshness.dropped, p.dropped);
        EXPECT_EQ(m.freshness.age_p50_ms, p.age_p50);
        EXPECT_EQ(m.freshness.age_p99_ms, p.age_p99);
        EXPECT_EQ(m.freshness.age_max_ms, p.age_max);
        EXPECT_EQ(m.decode_mean_ms, p.decode);
        EXPECT_EQ(m.preprocess_mean_ms, p.preprocess);
        EXPECT_EQ(m.infer_mean_ms.queue, p.queue);
        EXPECT_EQ(m.infer_mean_ms.dispatch_wait, p.dispatch_wait);
        EXPECT_EQ(m.infer_mean_ms.upload, p.upload);
        EXPECT_EQ(m.infer_mean_ms.compute, p.compute);
        EXPECT_EQ(m.infer_mean_ms.download, p.download);
        EXPECT_EQ(m.postprocess_mean_ms, p.postprocess);
    }
    EXPECT_EQ(rep.freshness.pages, pages);
    EXPECT_EQ(rep.freshness.first_page_s, first_page_s);
}

TEST(RunStreams, PinnedFieldsSurviveThePerCameraRewrite)
{
    expectPinned(
        runStreams(pinnedTwoModelOverload()),
        {{786, 624, 0x1.57da0bd231281p+8, 0x1.fdb90117c5e08p+8,
          0x1.0291d7456013dp+9, 0x1.fd2ad18377564p+0,
          0x1.009d6ec4620dfp+0, 0x1.b4ad49773ab53p+4, 0x0p+0,
          0x1.126fcc48d45cdp+2, 0x1.11dcdf968f944p+8,
          0x1.0d503342b5351p+1, 0x1.00c63ad132968p-1},
         {723, 0, 0x1.42f4700b25851p+4, 0x1.16bb0b60f7944p+5,
          0x1.3b0d364912ff6p+5, 0x1.ff67dad698599p+0,
          0x1.fe32d1eabdee2p-1, 0x1.df471329c0af1p+0,
          0x1.7e0adaf9dca09p-6, 0x1.2b84a66da227dp+0,
          0x1.a19cb894b47dep+3, 0x1.01cb9c2695b9fp-1,
          0x1.00ccdc02b1db9p-1}},
        32, 0x1.1ff3ba399d227p-4);
    expectPinned(
        runStreams(pinnedDecodeBacklog()),
        {{192, 0, 0x1.8e437d6aeb4b2p+8, 0x1.68e5e217d50edp+9,
          0x1.71d8e68f3d9fep+9, 0x1.772e97f4835d5p+8,
          0x1.01316b3ec307cp+0, 0x1.af8c294c95db7p+1, 0x0p+0,
          0x1.5911d22f8b454p+0, 0x1.b076678a1d781p+3,
          0x1.6e09676760b99p-1, 0x1.025486e81ec36p-1},
         {358, 0, 0x1.94a969d61b236p+3, 0x1.6b96a20b5f7fcp+4,
          0x1.71b61a97a238ep+4, 0x1.fc1faf34b60cep+0,
          0x1.fec8366dbd789p-1, 0x1.139fbfd0a697cp+1, 0x0p+0,
          0x1.99c95cbe8c249p-1, 0x1.b9477b62f8132p+2,
          0x1.54407357c65aap-4, 0x1.fdb421a84ef2cp-2}},
        8, 0x1.f127c4cd8d3adp-4);
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

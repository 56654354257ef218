/**
 * @file
 * Resumable control planes: the serve, fleet and stream runs
 * (serve::startServer, fleet::startFleet, stream::startStreams) run
 * their control plane in 1, 7 or 64
 * controlUntil() windows (equal cuts of the duration, then +inf) and
 * plan exactly what one uninterrupted drain plans. Every instance's
 * plan entries and id pool are compared before the replay, the
 * report's JSON and the metric snapshot after it. Each scenario puts
 * its membership, swap or overload events inside windows, and the
 * test checks that they happened.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/spec.hh"
#include "obs/metrics.hh"
#include "serve/cli.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace {

using namespace edgert;

/** A planned dispatch as the control plane decided it (the replay
 *  fills in the rest). */
using Plan = std::tuple<double, int, int, int, std::uint32_t, double>;

/** What one windowed run leaves behind. */
template <class Report>
struct Outcome
{
    std::vector<std::vector<Plan>> plans; //!< per instance
    std::vector<std::vector<std::int64_t>> ids; //!< per instance
    std::size_t first_window_plans = 0;
    std::size_t plans_total = 0;
    Report report;
    std::string json;
    std::string metrics;
};

std::size_t
planCount(const std::vector<serve::Instance> &instances)
{
    std::size_t n = 0;
    for (const serve::Instance &inst : instances)
        n += inst.plan.size();
    return n;
}

/** Run `cfg` from `start` with the control plane cut into `windows`
 *  equal windows of its duration, then drained. */
template <class Start, class Config>
auto
runWindowed(Start start, const Config &cfg, int windows)
{
    obs::MetricRegistry::global().reset();
    const auto run = start(cfg);
    Outcome<decltype(run->finish())> o;
    for (int k = 1; k <= windows; k++) {
        run->controlUntil(cfg.duration_s * k / windows);
        if (k == 1)
            o.first_window_plans = planCount(run->instances());
    }
    run->controlUntil(std::numeric_limits<double>::infinity());
    for (const serve::Instance &inst : run->instances()) {
        std::vector<Plan> plan;
        for (const serve::PlannedDispatch &pd : inst.plan)
            plan.emplace_back(pd.t_s, pd.engine_idx, pd.version, pd.batch,
                              pd.first_id, pd.predicted_service_s);
        o.plans.push_back(std::move(plan));
        o.ids.push_back(inst.ids);
    }
    o.plans_total = planCount(run->instances());
    o.report = run->finish();
    o.json = o.report.toJson();
    o.metrics = obs::MetricRegistry::global().toJson();
    return o;
}

/** Runs `cfg` in 1, 7 and 64 windows and requires identical
 *  outcomes; returns the one-window run. */
template <class Start, class Config>
auto
expectWindowInvariant(Start start, const Config &cfg)
{
    setLogLevel(LogLevel::kError);
    const auto one = runWindowed(start, cfg, 1);
    for (int windows : {7, 64}) {
        const auto o = runWindowed(start, cfg, windows);
        EXPECT_EQ(o.plans, one.plans) << windows << " windows";
        EXPECT_EQ(o.ids, one.ids) << windows << " windows";
        EXPECT_EQ(o.json, one.json) << windows << " windows";
        EXPECT_EQ(o.metrics, one.metrics) << windows << " windows";
        // The first window stopped with some, not all, of the plans.
        EXPECT_GT(o.first_window_plans, 0u) << windows << " windows";
        EXPECT_LT(o.first_window_plans, one.plans_total)
            << windows << " windows";
    }
    setLogLevel(LogLevel::kInfo);
    return one;
}

TEST(ControlWindows, ServeWithAHotSwapInsideAWindow)
{
    serve::ServeConfig cfg;
    cfg.models.push_back(
        serve::parseModelSpec("resnet-18:qps=300:slo_ms=25"));
    cfg.models.push_back(
        serve::parseModelSpec("mobilenetv1:qps=200:slo_ms=20"));
    cfg.devices = serve::parseDevices("nx,agx");
    cfg.duration_s = 1.0;
    cfg.seed = 5;
    serve::SwapSpec swap;
    swap.model = "resnet-18";
    swap.t_s = 0.37; // inside a window at every cut count
    swap.candidate_build_id = 2;
    cfg.swaps.push_back(swap);

    const auto one = expectWindowInvariant(serve::startServer, cfg);
    EXPECT_EQ(one.report.models[0].swaps, 1);
}

TEST(ControlWindows, FleetWithFailRejoinRolloutAndQuarantine)
{
    fleet::FleetConfig cfg;
    for (const char *g : {"nx:4", "agx:2:name=big", "nx:2:clock=0.6"})
        cfg.groups.push_back(fleet::parseNodeGroup(g));
    cfg.models.push_back(
        fleet::parseModelSpec("resnet-18:qps=1500:slo_ms=40"));
    cfg.models.push_back(fleet::parseModelSpec(
        "alexnet:qps=1000:slo_ms=30:nodes_pct=60"));
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.duration_s = 1.0;
    cfg.seed = 3;
    cfg.failures.push_back({2, 0.21, 0.55});
    cfg.failures.push_back({5, 0.35, -1.0});
    fleet::RolloutSpec ro;
    ro.model = "resnet-18";
    ro.candidate_build_id = 2;
    ro.stages = {{0.15, 10.0}, {0.45, 50.0}, {0.75, 100.0}};
    cfg.rollouts.push_back(ro);

    const auto one = expectWindowInvariant(fleet::startFleet, cfg);
    std::set<std::string> kinds;
    for (const fleet::FleetEvent &e : one.report.events)
        kinds.insert(e.kind);
    EXPECT_EQ(kinds,
              (std::set<std::string>{"fail", "quarantine", "rejoin"}));
    ASSERT_EQ(one.report.rollouts.size(), 1u);
    EXPECT_TRUE(one.report.rollouts[0].stages[0].executed);
}

TEST(ControlWindows, StreamWithAnOverloadedSkipToLatestLane)
{
    stream::StreamConfig cfg;
    cfg.models.push_back(stream::parseModelSpec(
        "tiny-yolov3:streams=32:policy=skip_to_latest:arrival=jitter",
        {}));
    cfg.models.push_back(stream::parseModelSpec(
        "mobilenetv1:streams=16:policy=drop_oldest:arrival=jitter", {}));
    cfg.devices = serve::parseDevices("nx,agx");
    cfg.duration_s = 1.0;
    cfg.seed = 7;

    const auto one = expectWindowInvariant(stream::startStreams, cfg);
    EXPECT_EQ(one.report.models[0].policy, "skip_to_latest");
    EXPECT_GT(one.report.models[0].freshness.dropped, 0)
        << "the skip_to_latest lane is overloaded";
}

} // namespace

/**
 * @file
 * The shared serving core and CLI pieces: the --model spec grammar of
 * the three serving tools (shared keys everywhere, another tool's keys
 * rejected, malformed numbers named), the calibrated ladder build, the
 * event calendar, the admission sojourn predictor, the completion fold
 * and the replay.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/spec.hh"
#include "obs/metrics.hh"
#include "serve/cli.hh"
#include "serve/core.hh"
#include "serve/predictor.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace edgert {
namespace {

/** The engine keys every tool shares, as one tool parsed them. */
struct EngineFields
{
    nn::Precision precision;
    serve::BatchPolicy batching;
    int instances;
    std::uint64_t calibration_seed;
};

EngineFields
engineFields(const std::string &tool, const std::string &spec)
{
    if (tool == "serve") {
        serve::ModelConfig mc = serve::parseModelSpec(spec);
        return {mc.precision, mc.batching, mc.instances_per_device,
                mc.calibration_seed};
    }
    if (tool == "fleet") {
        fleet::FleetModelConfig mc = fleet::parseModelSpec(spec);
        return {mc.precision, mc.batching, mc.instances_per_node,
                mc.calibration_seed};
    }
    stream::StreamModelConfig mc = stream::parseModelSpec(spec, {});
    return {mc.precision, mc.batching, mc.instances_per_device,
            mc.calibration_seed};
}

/** Parse `spec` with `tool`'s parser, discarding the result. */
void
parseWith(const std::string &tool, const std::string &spec)
{
    if (tool == "serve")
        serve::parseModelSpec(spec);
    else if (tool == "fleet")
        fleet::parseModelSpec(spec);
    else
        stream::parseModelSpec(spec, {});
}

/** The fatal() message `tool` gives for `spec` ("" = accepted). */
std::string
fatalMessage(const std::string &tool, const std::string &spec)
{
    try {
        parseWith(tool, spec);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

class ModelSpecTable : public ::testing::TestWithParam<const char *>
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::kError); }
    void TearDown() override { setLogLevel(LogLevel::kInfo); }
};

TEST_P(ModelSpecTable, EngineKeysAndPrecisionSuffix)
{
    EngineFields f = engineFields(
        GetParam(), "resnet-18@int8:max_batch=4:timeout_us=500"
                    ":instances=2:calib_seed=3");
    EXPECT_EQ(f.precision, nn::Precision::kInt8);
    EXPECT_EQ(f.batching.max_batch, 4);
    EXPECT_DOUBLE_EQ(f.batching.timeout_us, 500.0);
    EXPECT_EQ(f.instances, 2);
    EXPECT_EQ(f.calibration_seed, 3u);

    EngineFields plain = engineFields(GetParam(), "alexnet");
    EXPECT_EQ(plain.precision, nn::Precision::kFp16);
}

TEST_P(ModelSpecTable, MalformedSpecsAreFatal)
{
    const std::string tool = GetParam();
    for (const char *spec : {"", "@int8", "alexnet:max_batch",
                             "alexnet:warp=9", "alexnet@fp64"})
        EXPECT_NE(fatalMessage(tool, spec), "") << tool << " " << spec;
    std::string msg = fatalMessage(tool, "alexnet:max_batch=lots");
    EXPECT_NE(msg.find("max_batch"), std::string::npos) << msg;
    msg = fatalMessage(tool, "alexnet:timeout_us=1ms");
    EXPECT_NE(msg.find("timeout_us"), std::string::npos) << msg;
    // strtod reads these; no knob means them.
    for (const char *v : {"nan", "inf", "-inf"}) {
        msg = fatalMessage(tool, std::string("alexnet:timeout_us=") + v);
        EXPECT_NE(msg.find("not a finite number"), std::string::npos)
            << tool << " " << v << ": " << msg;
    }
}

TEST_P(ModelSpecTable, IntegerKeysRejectWhatAnIntCannotHold)
{
    // A count above INT_MAX must not wrap (max_batch=4294967297 was
    // once a batch of 1), and a seed is a uint64: no aliasing through
    // int.
    const std::string tool = GetParam();
    for (const char *spec :
         {"alexnet:max_batch=4294967297", "alexnet:instances=2147483648",
          "alexnet:max_batch=-2147483649"}) {
        const std::string msg = fatalMessage(tool, spec);
        EXPECT_NE(msg.find("out of range for an int"), std::string::npos)
            << tool << " " << spec << ": " << msg;
    }
    EXPECT_EQ(engineFields(tool, "alexnet:max_batch=2147483647")
                  .batching.max_batch,
              2147483647);
    EXPECT_EQ(engineFields(tool, "alexnet:calib_seed=4294967297")
                  .calibration_seed,
              4294967297u);
    EXPECT_EQ(engineFields(tool, "alexnet:calib_seed=18446744073709551615")
                  .calibration_seed,
              18446744073709551615u);
    EXPECT_NE(fatalMessage(tool, "alexnet:calib_seed=-1"), "");
}

INSTANTIATE_TEST_SUITE_P(Tools, ModelSpecTable,
                         ::testing::Values("serve", "fleet", "stream"));

TEST(ModelSpec, TrafficKeysOnServeAndFleet)
{
    const std::string spec = "alexnet:qps=250:slo_ms=12:arrival=bursty"
                             ":burst_factor=3:period_s=2:duty=0.25";
    serve::ModelConfig s = serve::parseModelSpec(spec);
    fleet::FleetModelConfig f = fleet::parseModelSpec(spec);
    for (const serve::ArrivalConfig *a : {&s.arrivals, &f.arrivals}) {
        EXPECT_DOUBLE_EQ(a->qps, 250.0);
        EXPECT_EQ(a->kind, serve::ArrivalKind::kBursty);
        EXPECT_DOUBLE_EQ(a->burst_factor, 3.0);
        EXPECT_DOUBLE_EQ(a->period_s, 2.0);
        EXPECT_DOUBLE_EQ(a->duty, 0.25);
    }
    EXPECT_DOUBLE_EQ(s.slo_ms, 12.0);
    EXPECT_DOUBLE_EQ(f.slo_ms, 12.0);
    std::string msg = fatalMessage("fleet", "alexnet:qps=fast");
    EXPECT_NE(msg.find("qps"), std::string::npos) << msg;
}

TEST(ModelSpec, ToolKeysStayWithTheirTool)
{
    setLogLevel(LogLevel::kError);
    EXPECT_DOUBLE_EQ(fleet::parseModelSpec("alexnet:nodes_pct=40")
                         .nodes_pct,
                     40.0);
    stream::StreamModelConfig defaults;
    defaults.fps = 15.0;
    stream::StreamModelConfig sm = stream::parseModelSpec(
        "tiny-yolov3:fps=20:streams=6:policy=block", defaults);
    EXPECT_DOUBLE_EQ(sm.fps, 20.0);
    EXPECT_EQ(sm.streams, 6);
    EXPECT_EQ(sm.policy, stream::BackpressurePolicy::kBlock);
    EXPECT_DOUBLE_EQ(
        stream::parseModelSpec("tiny-yolov3", defaults).fps, 15.0);

    EXPECT_NE(fatalMessage("serve", "alexnet:nodes_pct=40"), "");
    EXPECT_NE(fatalMessage("serve", "alexnet:fps=30"), "");
    EXPECT_NE(fatalMessage("fleet", "alexnet:fps=30"), "");
    EXPECT_NE(fatalMessage("stream", "alexnet:nodes_pct=40"), "");
    // Frames arrive from cameras, not from a request process.
    EXPECT_NE(fatalMessage("stream", "alexnet:qps=100"), "");
    EXPECT_NE(fatalMessage("stream", "alexnet:slo_ms=10"), "");
    setLogLevel(LogLevel::kInfo);
}

// Every engine of a ladder is calibrated on its own: svc[i] is what a
// fresh LatencyPredictor calibrated on engine i alone predicts.
TEST(ModelSpec, StreamCountsRejectWhatAnIntCannotHold)
{
    for (const char *spec : {"tiny-yolov3:streams=4294967297",
                             "tiny-yolov3:budget=4294967298"}) {
        const std::string msg = fatalMessage("stream", spec);
        EXPECT_NE(msg.find("out of range for an int"), std::string::npos)
            << spec << ": " << msg;
    }
}

/** What FlagParser::positiveValue() makes of `flag value` (-1 when
 *  it fatal()s, with the message in `*msg`). */
int
positiveFlag(const char *flag, const char *value, std::string *msg)
{
    std::string argv0 = "tool", name = flag, arg = value;
    char *argv[] = {argv0.data(), name.data(), arg.data()};
    FlagParser flags(3, argv);
    flags.next();
    try {
        return flags.positiveValue();
    } catch (const FatalError &e) {
        *msg = e.what();
    }
    return -1;
}

TEST(CliFlags, IntegersOutOfRangeAreFatal)
{
    // Parsing only: no pool or tool ever sees these values.
    setLogLevel(LogLevel::kError);
    std::string msg;
    EXPECT_EQ(positiveFlag("--sim-threads", "4294967297", &msg), -1);
    EXPECT_NE(msg.find("must be at most 2147483647"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("--sim-threads"), std::string::npos) << msg;
    EXPECT_EQ(positiveFlag("--sim-threads", "2147483648", &msg), -1);
    EXPECT_EQ(positiveFlag("--sim-threads", "0", &msg), -1);
    EXPECT_EQ(positiveFlag("--sim-threads", "2147483647", &msg),
              2147483647);

    // The fleet tool's --fail node and --rollout build= parse with
    // these.
    EXPECT_THROW(optionInt("fail node", "4294967297"), FatalError);
    EXPECT_THROW(optionInt("fail node", "-2147483649"), FatalError);
    EXPECT_EQ(optionInt("fail node", "-2147483648"), -2147483647 - 1);
    EXPECT_EQ(optionUnsigned("build", "4294967297"), 4294967297u);
    EXPECT_THROW(optionUnsigned("build", "-1"), FatalError);
    EXPECT_THROW(optionUnsigned("build", "18446744073709551616"),
                 FatalError);

    // Numbers parse through the same strict path and must be finite:
    // --duration-s inf would never end and nan would run an empty
    // window.
    for (const char *v : {"nan", "inf", "-inf", "NAN", "infinity"}) {
        std::string argv0 = "tool", name = "--duration-s", arg = v;
        char *argv[] = {argv0.data(), name.data(), arg.data()};
        FlagParser flags(3, argv);
        flags.next();
        EXPECT_THROW(flags.numberValue(), FatalError) << v;
        EXPECT_THROW(optionNumber("fps", v), FatalError) << v;
    }
    EXPECT_EQ(optionNumber("fps", "1e-3"), 1e-3);
    setLogLevel(LogLevel::kInfo);
}

// Configs built in code bypass the CLI's parsers; each entrypoint
// still refuses values it cannot run.
TEST(ConfigGuards, NonFiniteAndOutOfRangeValuesAreFatal)
{
    setLogLevel(LogLevel::kError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto serveWith = [](double duration_s, double ram_fraction) {
        serve::ServeConfig cfg;
        cfg.models.push_back(serve::parseModelSpec("alexnet:qps=50"));
        cfg.devices = serve::parseDevices("nx");
        cfg.duration_s = duration_s;
        cfg.ram_fraction = ram_fraction;
        return serve::runServer(cfg);
    };
    for (double d : {nan, inf, -1.0})
        EXPECT_THROW(serveWith(d, 0.5), FatalError) << d;
    for (double f : {nan, inf, 7.0, 0.0})
        EXPECT_THROW(serveWith(0.1, f), FatalError) << f;

    auto fleetWith = [](double duration_s, double ram_fraction) {
        fleet::FleetConfig cfg;
        cfg.groups.push_back(fleet::parseNodeGroup("nx:2"));
        cfg.models.push_back(fleet::parseModelSpec("alexnet:qps=50"));
        cfg.duration_s = duration_s;
        cfg.ram_fraction = ram_fraction;
        return fleet::runFleet(cfg);
    };
    for (double d : {nan, inf})
        EXPECT_THROW(fleetWith(d, 0.5), FatalError) << d;
    for (double f : {nan, inf, 7.0})
        EXPECT_THROW(fleetWith(0.1, f), FatalError) << f;

    auto streamConfig = [](auto tweak) {
        stream::StreamConfig cfg;
        cfg.models.push_back(
            stream::parseModelSpec("mobilenetv1:streams=1", {}));
        tweak(cfg.models[0]);
        cfg.devices = serve::parseDevices("nx");
        cfg.duration_s = 0.1;
        return cfg;
    };
    auto streamWith = [&](auto tweak) {
        return stream::runStreams(streamConfig(tweak));
    };
    using Model = stream::StreamModelConfig;
    for (double v : {nan, inf})
        EXPECT_THROW(streamWith([&](Model &m) { m.fps = v; }), FatalError)
            << v;
    EXPECT_THROW(streamWith([&](Model &m) { m.stale_ms = nan; }),
                 FatalError);
    // Both fail fast, at construction: before any ladder build, control
    // plane or replay.
    for (double v : {nan, inf, 0.0, -30.0}) {
        const stream::StreamConfig cfg =
            streamConfig([&](Model &m) { m.fps = v; });
        EXPECT_THROW(stream::startStreams(cfg), FatalError) << v;
    }
    for (double v : {nan, 0.0, -1.0}) {
        const stream::StreamConfig cfg =
            streamConfig([&](Model &m) { m.stale_ms = v; });
        EXPECT_THROW(stream::startStreams(cfg), FatalError) << v;
    }
    for (double v : {-5.0, nan, inf}) {
        EXPECT_THROW(streamWith([&](Model &m) { m.stages.decode_ms = v; }),
                     FatalError)
            << v;
        EXPECT_THROW(
            streamWith([&](Model &m) { m.stages.preprocess_ms = v; }),
            FatalError)
            << v;
        EXPECT_THROW(
            streamWith([&](Model &m) { m.stages.postprocess_ms = v; }),
            FatalError)
            << v;
    }
    setLogLevel(LogLevel::kInfo);
}

TEST(BuildLadder, PerEngineCalibration)
{
    const gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    serve::LadderSpec spec;
    spec.model = "alexnet";
    spec.max_batch = 4;
    serve::EngineSet set = serve::buildLadder(nx, spec, nullptr);
    ASSERT_EQ(set.batches, (std::vector<int>{1, 2, 4}));
    ASSERT_EQ(set.engines.size(), 3u);
    ASSERT_EQ(set.service_s.size(), 3u);
    for (std::size_t i = 0; i < set.engines.size(); i++) {
        serve::LatencyPredictor fresh(nx);
        fresh.calibrate(set.engines[i]);
        EXPECT_EQ(set.service_s[i],
                  fresh.predictServiceSeconds(set.engines[i]))
            << "engine " << i;
    }
    EXPECT_LT(set.service_s[0], set.service_s[2]);
}

// The calendar merges the given arrivals with the scheduled events:
// arrivals pop in the given order, scheduled events by (t, push order),
// an arrival before a scheduled event at the same t, and the calendar
// is empty only once both are drained. nextTime() is always the t of
// the next pop, and +inf on an empty calendar.
TEST(EventQueue, ArrivalsMergeWithScheduledEvents)
{
    using serve::Event;
    serve::EventQueue q({{0.1, 7}, {0.2, 3}, {0.2, 5}});
    q.push(0.2, Event::kTimeout, 1);
    q.push(0.05, Event::kPredFree, 2);
    q.push(0.2, Event::kPredFree, 4);
    q.push(0.3, Event::kStage, 9, 11);
    // (t, kind, request id for an arrival or target otherwise, req)
    using Popped = std::tuple<double, Event::Kind, std::int64_t,
                              std::int64_t>;
    std::vector<Popped> got;
    while (!q.empty()) {
        const double next = q.nextTime();
        const Event e = q.pop();
        EXPECT_EQ(next, e.t) << "pop " << got.size();
        got.emplace_back(e.t, e.kind,
                         e.kind == Event::kArrival ? e.req : e.target,
                         e.req);
    }
    const std::vector<Popped> want = {
        {0.05, Event::kPredFree, 2, -1}, {0.1, Event::kArrival, 7, 7},
        {0.2, Event::kArrival, 3, 3},    {0.2, Event::kArrival, 5, 5},
        {0.2, Event::kTimeout, 1, -1},   {0.2, Event::kPredFree, 4, -1},
        {0.3, Event::kStage, 9, 11}};
    EXPECT_EQ(got, want);

    // Scheduled events drained first: arrivals keep the queue open.
    serve::EventQueue tail({{1.0, 0}});
    tail.push(0.5, Event::kTimeout, 0);
    EXPECT_EQ(tail.pop().kind, Event::kTimeout);
    ASSERT_FALSE(tail.empty());
    EXPECT_EQ(tail.pop().kind, Event::kArrival);
    EXPECT_TRUE(tail.empty());

    // An event scheduled mid-loop at a pending arrival's time pops
    // after it.
    serve::EventQueue mid({{0.1, 0}, {0.3, 1}});
    EXPECT_EQ(mid.pop().req, 0);
    mid.push(0.3, Event::kPredFree, 6);
    EXPECT_EQ(mid.nextTime(), 0.3);
    EXPECT_EQ(mid.pop().kind, Event::kArrival);
    EXPECT_EQ(mid.nextTime(), 0.3);
    EXPECT_EQ(mid.pop().kind, Event::kPredFree);
    EXPECT_TRUE(mid.empty());
    EXPECT_EQ(mid.nextTime(), std::numeric_limits<double>::infinity());
    EXPECT_TRUE(serve::EventQueue().empty());
    EXPECT_EQ(serve::EventQueue().nextTime(),
              std::numeric_limits<double>::infinity());

    // A scheduled event earlier than the next arrival is next.
    serve::EventQueue early({{0.5, 0}});
    early.push(0.25, Event::kTimeout, 3);
    EXPECT_EQ(early.nextTime(), 0.25);
    EXPECT_EQ(early.pop().kind, Event::kTimeout);
    EXPECT_EQ(early.nextTime(), 0.5);
}

/** A {1,2,4,8} ladder whose batch-1 service is `base_s`; each step
 *  costs 1.5x the previous. No engines: the predictor reads only the
 *  rungs and their service times. */
serve::EngineSet
scaledLadder(double base_s)
{
    serve::EngineSet set;
    set.batches = {1, 2, 4, 8};
    double s = base_s;
    for (std::size_t i = 0; i < set.batches.size(); i++) {
        set.service_s.push_back(s);
        s *= 1.5;
    }
    return set;
}

/** Instances of model 0 scored together by the sojourn predictor. */
struct Backend
{
    serve::ModelVersions versions;
    std::vector<serve::Instance> instances;
    std::vector<int> members;

    /** Add a version-0, slot-0 member predicted free at `free_s`. */
    void add(double free_s)
    {
        serve::Instance inst;
        inst.predicted_free_s = free_s;
        members.push_back(static_cast<int>(instances.size()));
        instances.push_back(inst);
    }

    double sojourn(const serve::BatchPolicy &policy, int queued_ahead,
                   double now_s, double rate_hz) const
    {
        // Scratch left over from an earlier call: the predictor must
        // overwrite it, or the stale -1 s entries would win every
        // earliest-free pick.
        std::vector<double> scratch(members.size() + 3, -1.0);
        return serve::predictSojournSeconds(members, instances, versions,
                                            policy, queued_ahead, now_s,
                                            rate_hz, scratch);
    }
};

/** One instance, free at `free_s`, on a scaledLadder(base_s). */
Backend
ladderBackend(double free_s, double base_s)
{
    Backend b;
    b.versions.resize(1);
    b.versions[0].emplace_back();
    b.versions[0][0].sets.push_back(scaledLadder(base_s));
    b.add(free_s);
    return b;
}

TEST(Sojourn, EmptyBackendIsInfeasible)
{
    Backend none = ladderBackend(0.0, 0.010);
    none.members.clear();
    serve::BatchPolicy policy;
    EXPECT_GT(none.sojourn(policy, 0, 0.0, 100.0), 1e6);
}

TEST(Sojourn, IdleBackendPredictsSmallBatchService)
{
    // Idle instance, empty queue, slow arrivals: the estimate is
    // near fill-wait + batch-1 service, nowhere near the batch-8
    // worst case (which would make admission shed light traffic).
    const Backend b = ladderBackend(0.0, 0.010);
    serve::BatchPolicy policy{8, 2000.0};
    double est = b.sojourn(policy, 0, 0.0, 10.0);
    EXPECT_GE(est, 0.010);
    EXPECT_LT(est, 0.010 * 1.5 + 0.0021); // < batch-2 svc + timeout
}

TEST(Sojourn, GrowsWithBacklog)
{
    const Backend b = ladderBackend(0.0, 0.010);
    serve::BatchPolicy policy{8, 2000.0};
    double prev = -1.0;
    for (int backlog : {0, 8, 16, 32}) {
        double est = b.sojourn(policy, backlog, 0.0, 100.0);
        EXPECT_GT(est, prev);
        prev = est;
    }
    // 32 queued ahead = 4 full batch-8 dispatches before ours.
    double svc8 = 0.010 * 1.5 * 1.5 * 1.5;
    EXPECT_GE(prev, 4 * svc8);
}

TEST(Sojourn, BusyInstanceDelaysCompletion)
{
    serve::BatchPolicy policy{8, 2000.0};
    double idle = ladderBackend(0.0, 0.010).sojourn(policy, 0, 0.0, 100.0);
    double busy = ladderBackend(0.5, 0.010).sojourn(policy, 0, 0.0, 100.0);
    EXPECT_NEAR(busy - idle, 0.5, 1e-9);
}

TEST(Sojourn, MoreInstancesDrainBacklogFaster)
{
    serve::BatchPolicy policy{8, 2000.0};
    const Backend one = ladderBackend(0.0, 0.010);
    Backend two = one;
    two.add(0.0);
    double est1 = one.sojourn(policy, 32, 0.0, 100.0);
    double est2 = two.sojourn(policy, 32, 0.0, 100.0);
    EXPECT_LT(est2, est1);
}

// An instance swapped onto version 1 is scored with version 1's table
// for its own slot, not the version-0 table it was placed with.
TEST(Sojourn, SwappedInstanceUsesItsVersionTable)
{
    Backend b = ladderBackend(0.0, 0.010);
    b.versions[0][0].sets.push_back(scaledLadder(0.010)); // slot 1
    b.versions[0].emplace_back();
    b.versions[0][1].sets = {scaledLadder(0.040), scaledLadder(0.020)};
    b.instances[0].version = 1;
    b.instances[0].slot = 1;
    // No arrival rate: the fill wait is the whole timeout and the
    // request's own batch is 1. Eight queued ahead are one full
    // batch-8 dispatch before it on the only instance.
    serve::BatchPolicy policy{8, 2000.0};
    const std::vector<double> &svc = b.versions[0][1].sets[1].service_s;
    EXPECT_NEAR(b.sojourn(policy, 0, 0.0, 0.0), svc[0] + 0.002, 1e-12);
    EXPECT_NEAR(b.sojourn(policy, 8, 0.0, 0.0),
                svc[3] + svc[0] + 0.002, 1e-12);
}

// foldReplay writes each carried request's outcome, completion time and
// handle to the plan that carried it, leaves a request no plan carries
// untouched, shows the hook every plan in walk order and counts the
// plans per model. requestTrace reads the dispatch through the handle.
TEST(FoldReplay, NamesEachCarriedRequestsPlanAndCountsPerModel)
{
    std::vector<serve::Request> requests(6);
    for (std::size_t i = 0; i < requests.size(); i++) {
        requests[i].id = static_cast<std::int64_t>(i);
        requests[i].model = i < 4 ? 0 : 1;
        requests[i].arrival_s = 0.01 * static_cast<double>(i);
        requests[i].slo_ms = 20.0;
    }
    // A dispatch's ids go onto the end of its instance's id pool.
    auto plan = [](serve::Instance &inst,
                   const std::vector<std::int64_t> &ids, double t0,
                   int version) {
        serve::PlannedDispatch pd;
        pd.t_s = t0 - 0.05;
        pd.version = version;
        pd.batch = static_cast<int>(ids.size());
        pd.first_id = static_cast<std::uint32_t>(inst.ids.size());
        inst.ids.insert(inst.ids.end(), ids.begin(), ids.end());
        pd.begin_s = t0;
        pd.upload_done_s = t0 + 0.001;
        pd.compute_done_s = t0 + 0.003;
        pd.end_s = t0 + 0.004;
        inst.plan.push_back(pd);
    };
    // Model 0 on instance 0 (device 0); model 1 on instances 1
    // (planless) and 2 (device 1). Request 3 is never dispatched.
    std::vector<serve::Instance> instances(3);
    plan(instances[0], {0, 2}, 0.1, 0);
    plan(instances[0], {1}, 0.2, 1);
    instances[1].model = 1;
    instances[2].model = 1;
    instances[2].device = 1;
    plan(instances[2], {5, 4}, 0.3, 2);
    const serve::Request before = requests[3];

    std::vector<int> hook_batches;
    const serve::FoldCounts fc = serve::foldReplay(
        instances, 2, requests, serve::Outcome::kCompleted,
        [&](const serve::Instance &, const serve::PlannedDispatch &pd) {
            hook_batches.push_back(pd.batch);
        });

    for (std::size_t i = 0; i < instances.size(); i++) {
        const serve::Instance &inst = instances[i];
        for (std::size_t p = 0; p < inst.plan.size(); p++) {
            const serve::PlannedDispatch &pd = inst.plan[p];
            for (std::int64_t id : inst.idsOf(pd)) {
                SCOPED_TRACE(id);
                const serve::Request &r =
                    requests[static_cast<std::size_t>(id)];
                EXPECT_EQ(r.outcome, serve::Outcome::kCompleted);
                EXPECT_EQ(r.instance, static_cast<int>(i));
                EXPECT_EQ(r.plan, p);
                EXPECT_EQ(&serve::planOf(instances, r), &pd);
                EXPECT_EQ(r.done_s, pd.end_s);

                const watch::RequestTrace rt =
                    serve::requestTrace(instances, r, r.arrival_s);
                EXPECT_EQ(rt.id, r.id);
                EXPECT_EQ(rt.model, r.model);
                EXPECT_EQ(rt.device, inst.device);
                EXPECT_EQ(rt.instance, r.instance);
                EXPECT_EQ(rt.batch, pd.batch);
                EXPECT_EQ(rt.version, pd.version);
                EXPECT_EQ(rt.arrival_s, r.arrival_s);
                EXPECT_EQ(rt.dispatch_s, pd.t_s);
                EXPECT_EQ(rt.begin_s, pd.begin_s);
                EXPECT_EQ(rt.upload_done_s, pd.upload_done_s);
                EXPECT_EQ(rt.compute_done_s, pd.compute_done_s);
                EXPECT_EQ(rt.done_s, pd.end_s);
            }
        }
    }
    // Each id names its own dispatch's slice of its instance's pool.
    EXPECT_EQ(requests[0].plan, 0u);
    EXPECT_EQ(requests[2].plan, 0u);
    EXPECT_EQ(requests[1].plan, 1u);
    EXPECT_EQ(requests[1].done_s, 0.2 + 0.004);
    EXPECT_EQ(requests[4].instance, 2);
    EXPECT_EQ(requests[5].instance, 2);
    EXPECT_EQ(serve::requestTrace(instances, requests[1], 0.0).version, 1);
    EXPECT_EQ(serve::requestTrace(instances, requests[4], 0.0).device, 1);

    const serve::Request &idle = requests[3];
    EXPECT_EQ(idle.instance, -1);
    EXPECT_EQ(idle.outcome, serve::Outcome::kPending);
    EXPECT_EQ(idle.id, before.id);
    EXPECT_EQ(idle.model, before.model);
    EXPECT_EQ(idle.arrival_s, before.arrival_s);
    EXPECT_EQ(idle.slo_ms, before.slo_ms);
    EXPECT_EQ(idle.done_s, before.done_s);
    EXPECT_EQ(idle.plan, before.plan);

    EXPECT_EQ(hook_batches, (std::vector<int>{2, 1, 2}));
    EXPECT_EQ(fc.batches, (std::vector<std::int64_t>{2, 1}));
    EXPECT_EQ(fc.dispatched, (std::vector<std::int64_t>{3, 2}));
}

// replayPlans hands each planned device to a worker that feeds, runs
// and destroys its own simulator: ten planned devices at two threads,
// plus an eleventh whose instances have no plans and so replays inline
// on the caller, give the same folded times, per-device results and
// merged metrics as the inline run.
TEST(ReplayPlans, WindowedReplayMatchesInline)
{
    const gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    serve::LadderSpec spec;
    spec.model = "alexnet";
    spec.max_batch = 2;
    serve::ModelVersions versions(1);
    versions[0].emplace_back();
    versions[0][0].sets.push_back(serve::buildLadder(nx, spec, nullptr));
    const std::size_t planned = 10;
    const std::vector<gpusim::DeviceSpec> devices(planned + 1, nx);

    struct Outcome
    {
        std::vector<serve::Instance> instances;
        serve::Replay replay;
        std::string metrics;
    };
    auto replay = [&](int threads) {
        obs::MetricRegistry::global().reset();
        Outcome o;
        for (int d = 0; d < static_cast<int>(devices.size()); d++) {
            serve::Instance inst;
            inst.device = d;
            if (d == static_cast<int>(planned)) {
                o.instances.push_back(inst); // two planless instances
                o.instances.push_back(inst);
                continue;
            }
            for (int i = 0; i < 4; i++) {
                serve::PlannedDispatch pd;
                // The last release comes after the instance drained.
                pd.t_s = (i < 3 ? 0.002 * i : 0.05) + 0.0001 * d;
                pd.engine_idx = (i + d) % 2;
                pd.batch = pd.engine_idx + 1;
                inst.plan.push_back(pd);
            }
            o.instances.push_back(inst);
        }
        serve::ReplayOptions ro;
        ro.threads = threads;
        o.replay = serve::replayPlans(devices, o.instances, versions, ro);
        o.metrics = obs::MetricRegistry::global().toJson();
        return o;
    };
    const Outcome inline_run = replay(1);
    const Outcome pooled = replay(2);
    EXPECT_EQ(pooled.replay.threads, 2);
    EXPECT_EQ(pooled.replay.pool.tasks_run, planned);
    EXPECT_EQ(inline_run.metrics, pooled.metrics);
    ASSERT_EQ(pooled.replay.devices.size(), devices.size());
    for (const Outcome *o : {&inline_run, &pooled}) {
        const serve::DeviceReplay &idle = o->replay.devices[planned];
        EXPECT_EQ(idle.sim.simulated_s, 0.0);
        EXPECT_EQ(idle.sim.ops_enqueued, 0u);
        EXPECT_TRUE(idle.trace.empty());
    }
    for (std::size_t d = 0; d < planned; d++) {
        SCOPED_TRACE(d);
        const serve::DeviceReplay &a = inline_run.replay.devices[d];
        const serve::DeviceReplay &b = pooled.replay.devices[d];
        EXPECT_GT(a.sim.simulated_s, 0.0);
        EXPECT_EQ(a.sim.simulated_s, b.sim.simulated_s);
        EXPECT_EQ(a.sim.ops_completed, b.sim.ops_completed);
        EXPECT_EQ(a.util.gpu_busy_s, b.util.gpu_busy_s);
        ASSERT_FALSE(a.trace.empty()); // moved out of the simulator
        ASSERT_EQ(a.trace.size(), b.trace.size());
        for (std::size_t i = 0; i < a.trace.size(); i++) {
            EXPECT_EQ(a.trace[i].name, b.trace[i].name);
            EXPECT_EQ(a.trace[i].end_s, b.trace[i].end_s);
        }
        const auto &pa = inline_run.instances[d].plan;
        const auto &pb = pooled.instances[d].plan;
        // Released on time: the instance sat idle until then.
        EXPECT_NEAR(pa.back().begin_s, pa.back().t_s, 1e-12);
        for (std::size_t i = 0; i < pa.size(); i++) {
            EXPECT_GT(pa[i].end_s, pa[i].begin_s);
            EXPECT_EQ(pa[i].begin_s, pb[i].begin_s);
            EXPECT_EQ(pa[i].upload_done_s, pb[i].upload_done_s);
            EXPECT_EQ(pa[i].compute_done_s, pb[i].compute_done_s);
            EXPECT_EQ(pa[i].end_s, pb[i].end_s);
        }
    }
}

} // namespace
} // namespace edgert

/**
 * @file
 * End-to-end observability tests: a real build instruments itself
 * into the global MetricRegistry and Tracer, the resulting snapshot
 * does not depend on the host clock at all, and the merged
 * chrome-trace document (host spans above device tracks) is valid
 * JSON. These are the acceptance tests for the obs subsystem: they
 * exercise the registry through the builder/optimizer/gpusim/runtime
 * instrumentation seams rather than through its own API.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/builder.hh"
#include "core/timing_cache.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "profile/trace_export.hh"
#include "runtime/context.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace edgert {
namespace {

using obs::FakeClock;
using obs::MetricRegistry;
using obs::ScopedClock;
using obs::Tracer;

/**
 * One cold + one warm build of the same model against a shared
 * timing cache, with the host clock replaced by a FakeClock that
 * starts at @p start_ns and steps @p step_ns per reading.
 */
std::string
coldWarmSnapshot(std::uint64_t start_ns = 1'000'000,
                 std::uint64_t step_ns = 500)
{
    MetricRegistry::global().reset();
    FakeClock fake(start_ns, step_ns);
    ScopedClock scoped(&fake);

    nn::Network net = nn::buildZooModel("resnet-18");
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::TimingCache cache;
    core::BuilderConfig cfg;
    cfg.build_id = 3;
    cfg.jobs = 1;
    cfg.timing_cache = &cache;

    core::Builder builder(nx, cfg);
    core::Engine cold = builder.build(net);
    core::Engine warm = builder.build(net);
    EXPECT_EQ(cold.fingerprint(), warm.fingerprint());

    return MetricRegistry::global().toJson();
}

TEST(ObsE2E, SnapshotIsValidJson)
{
    std::string snapshot = coldWarmSnapshot();
    std::string error;
    EXPECT_TRUE(jsonValid(snapshot, &error)) << error;
}

TEST(ObsE2E, BuildRecordsCacheTrafficAndPassSpans)
{
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    std::string snapshot = coldWarmSnapshot();
    Tracer::global().setEnabled(false);

    MetricRegistry &reg = MetricRegistry::global();
    obs::Labels dev = {{"device", "xavier-nx"}};

    // The cold build misses the empty cache; the warm rebuild of
    // the same model hits it. Both directions must be nonzero.
    EXPECT_GT(reg.gauge("builder.timing_cache.hits", dev).value(),
              0.0);
    EXPECT_GT(reg.gauge("builder.timing_cache.misses", dev).value(),
              0.0);
    EXPECT_GT(reg.counter("builder.tactic.measured", dev).value(),
              0);
    EXPECT_GT(
        reg.counter("builder.tactic.cache_served", dev).value(), 0);

    // Per-pass host time lives in `pass:<name>` spans, one per
    // optimize() call (two builds -> two each), and never in the
    // snapshot.
    const std::vector<obs::SpanRecord> spans = Tracer::global().spans();
    for (const char *pass :
         {"dead_layer_removal", "fusion", "horizontal_merge",
          "precision_assignment"}) {
        const std::string name = std::string("pass:") + pass;
        int seen = 0;
        for (const obs::SpanRecord &s : spans) {
            if (s.name != name)
                continue;
            seen++;
            EXPECT_GT(s.end_ns, s.start_ns) << name;
        }
        EXPECT_EQ(seen, 2) << name;
        EXPECT_EQ(snapshot.find(std::string("pass=") + pass),
                  std::string::npos);
    }
    Tracer::global().clear();
}

TEST(ObsE2E, SnapshotBytesReproducibleUnderFakeClock)
{
    // Two full cold+warm cycles, registry reset between them: same
    // build_id + FakeClock => the serialized snapshots must be
    // byte-identical, not merely equivalent.
    std::string first = coldWarmSnapshot();
    std::string second = coldWarmSnapshot();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());

    // The snapshot holds no host time: a clock that starts
    // elsewhere and runs at another rate changes nothing.
    EXPECT_EQ(first, coldWarmSnapshot(7'000'000'000, 7919));
}

/** Snapshot of @p run's replay on nx + agx at @p threads. */
template <class Cfg, class Run>
std::string
twoDeviceSnapshot(Cfg cfg, Run run, int threads)
{
    MetricRegistry::global().reset();
    cfg.devices = {serve::parseDevice("nx"), serve::parseDevice("agx")};
    cfg.duration_s = 0.5;
    cfg.sim_threads = threads;
    run(cfg);
    std::string snapshot = MetricRegistry::global().toJson();
    // Every device's simulator published its self-measurement.
    for (std::size_t d = 0; d < cfg.devices.size(); d++) {
        const obs::Labels labels = {{"device", cfg.devices[d].name},
                                    {"index", std::to_string(d)}};
        EXPECT_NE(snapshot.find(MetricRegistry::key("sim.events",
                                                    labels)),
                  std::string::npos)
            << snapshot;
        EXPECT_GT(
            MetricRegistry::global().gauge("sim.events", labels).value(),
            0.0);
    }
    return snapshot;
}

TEST(ObsE2E, ServeAndStreamPublishSimGaugesPerDevice)
{
    // No flag turns these on: every sim.* value is fixed by the
    // simulation, so the snapshot is the same at any thread count.
    serve::ServeConfig serve_cfg;
    serve::ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 40.0;
    mc.arrivals.qps = 200.0;
    serve_cfg.models.push_back(mc);
    EXPECT_EQ(twoDeviceSnapshot(serve_cfg, serve::runServer, 1),
              twoDeviceSnapshot(serve_cfg, serve::runServer, 2));

    stream::StreamConfig stream_cfg;
    stream::StreamModelConfig sm;
    sm.model = "tiny-yolov3";
    sm.streams = 4;
    sm.fps = 30.0;
    stream_cfg.models.push_back(sm);
    EXPECT_EQ(twoDeviceSnapshot(stream_cfg, stream::runStreams, 1),
              twoDeviceSnapshot(stream_cfg, stream::runStreams, 2));
}

TEST(ObsE2E, MergedTraceHasHostSpansAndDeviceOps)
{
    MetricRegistry::global().reset();
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    FakeClock fake(0, 1000);
    ScopedClock scoped(&fake);

    nn::Network net = nn::buildZooModel("alexnet");
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::BuilderConfig cfg;
    cfg.build_id = 2;
    core::Engine engine = core::Builder(nx, cfg).build(net);

    gpusim::GpuSim sim(nx);
    runtime::ExecutionContext ctx(engine, sim, 0);
    ctx.enqueueWeightUpload();
    ctx.enqueueInference();
    sim.run();

    std::ostringstream os;
    profile::writeMergedChromeTrace(os, Tracer::global().spans(),
                                    sim.trace(), "obs_e2e");
    Tracer::global().setEnabled(false);
    std::string doc = os.str();

    std::string error;
    ASSERT_TRUE(jsonValid(doc, &error)) << error;

    // Host side: the build span and a tactic sweep, plus thread
    // names so the viewer labels the tracks.
    EXPECT_NE(doc.find("\"build\""), std::string::npos);
    EXPECT_NE(doc.find("\"tactic_sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"context_setup\""), std::string::npos);
    EXPECT_NE(doc.find("thread_name"), std::string::npos);
    EXPECT_NE(doc.find("host thread 0"), std::string::npos);

    // Device side: real simulated ops on the stream track.
    EXPECT_NE(doc.find("\"cat\":\"kernel\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"memcpy_h2d\""),
              std::string::npos);
    EXPECT_NE(doc.find("stream 0 (obs_e2e)"), std::string::npos);
}

TEST(ObsE2E, MergedTraceBytesReproducibleUnderFakeClock)
{
    // Same build id + FakeClock + deterministic simulator => the
    // merged trace document itself is byte-identical across runs.
    auto traceOnce = []() {
        Tracer::global().clear();
        Tracer::global().setEnabled(true);
        FakeClock fake(0, 1000);
        ScopedClock scoped(&fake);

        nn::Network net = nn::buildZooModel("alexnet");
        gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
        core::BuilderConfig cfg;
        cfg.build_id = 7;
        cfg.jobs = 1;
        core::Engine engine = core::Builder(nx, cfg).build(net);

        gpusim::GpuSim sim(nx);
        runtime::ExecutionContext ctx(engine, sim, 0);
        ctx.enqueueWeightUpload();
        ctx.enqueueInference();
        sim.run();

        std::ostringstream os;
        profile::writeMergedChromeTrace(
            os, Tracer::global().spans(), sim.trace(), "repro");
        Tracer::global().setEnabled(false);
        return os.str();
    };

    std::string first = traceOnce();
    std::string second = traceOnce();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(ObsE2E, RuntimeCountsInferencesAndUploadBytes)
{
    MetricRegistry::global().reset();
    nn::Network net = nn::buildZooModel("alexnet");
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::BuilderConfig cfg;
    cfg.build_id = 2;
    core::Engine engine = core::Builder(nx, cfg).build(net);

    gpusim::GpuSim sim(nx);
    runtime::ExecutionContext ctx(engine, sim, 0);
    ctx.enqueueWeightUpload();
    ctx.enqueueInference();
    ctx.enqueueInference();
    sim.run();

    MetricRegistry &reg = MetricRegistry::global();
    obs::Labels model = {{"model", "alexnet"}};
    EXPECT_EQ(
        reg.counter("runtime.inference.enqueued", model).value(),
        2);
    EXPECT_GT(
        reg.counter("runtime.weight_upload.bytes", model).value(),
        0);

    // GpuSim's own instrumentation saw the launches and copies.
    obs::Labels dev = {{"device", "xavier-nx"}};
    EXPECT_GT(reg.counter("gpusim.kernel.launches", dev).value(),
              0);
    EXPECT_GT(reg.counter("gpusim.memcpy.bytes",
                          {{"device", "xavier-nx"},
                           {"dir", "h2d"}})
                  .value(),
              0);
}

TEST(ObsE2E, EveryEmittedArtifactIsRfc8259Json)
{
    // An overloaded watched serve run emits every artifact kind the
    // observability stack produces: the serve report, the watch
    // report, flight-recorder incident files, the merged
    // chrome-trace timeline and the metric-registry snapshot. Each
    // one must parse as RFC-8259 JSON — no trailing commas, bare
    // NaNs or unescaped control characters anywhere.
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "obs_e2e_watch";
    fs::create_directories(dir);

    MetricRegistry::global().reset();
    serve::ServeConfig cfg;
    serve::ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 10.0;
    mc.arrivals.qps = 900;
    mc.batching.max_batch = 4;
    cfg.models.push_back(mc);
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = 0.5;
    cfg.trace_out = (dir / "trace.json").string();
    cfg.watch.enabled = true;
    cfg.watch.out_path = (dir / "watch.json").string();
    cfg.watch.incident_prefix = (dir / "watch.").string();

    serve::ServeReport rep = serve::runServer(cfg);
    {
        std::ofstream f(dir / "report.json");
        f << rep.toJson();
    }
    MetricRegistry::global().save((dir / "metrics.json").string());

    EXPECT_GE(rep.watch.incidents, 1)
        << "overload scenario produced no incident file";

    std::vector<fs::path> files;
    for (const auto &ent : fs::directory_iterator(dir))
        files.push_back(ent.path());
    EXPECT_GE(files.size(), 5u); // report, watch, trace, metrics,
                                 // >=1 incident
    for (const fs::path &p : files) {
        std::ifstream f(p);
        std::ostringstream os;
        os << f.rdbuf();
        std::string error;
        EXPECT_TRUE(jsonValid(os.str(), &error))
            << p.filename() << ": " << error;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace edgert

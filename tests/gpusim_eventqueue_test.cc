/**
 * @file
 * SimCore hot-path tests: the flat event calendar (delay min-heap
 * ordering with FIFO tie-break), the arena containers the simulator
 * allocates from, compact op storage (per-op footprint, launches
 * backed by moved kernel lists), trace-mode thinning, the
 * sampled-trace profiler footer, and the serial-vs-parallel
 * byte-identity contract of the serve and fleet replays (sim_threads
 * must never change an observable byte of the report, metric
 * snapshot or device traces).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/arena.hh"
#include "core/builder.hh"
#include "fleet/fleet.hh"
#include "fleet/spec.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "kernel_launcher.hh"
#include "nn/model_zoo.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "profile/nvprof.hh"
#include "runtime/context.hh"
#include "serve/server.hh"

namespace edgert {
namespace {

using gpusim::GpuSim;
using gpusim::KernelDesc;
using gpusim::OpKind;
using gpusim::TraceMode;

KernelDesc
kernel(std::int64_t grid, std::int64_t flops)
{
    KernelDesc k;
    k.name = "k";
    k.grid_blocks = grid;
    k.flops = flops;
    k.dram_bytes = 1 << 20;
    return k;
}

// ---------------------------------------------------------------
// Delay calendar ordering
// ---------------------------------------------------------------

TEST(EventCalendar, DelaysCompleteInTimeOrder)
{
    // Release times enqueued in descending order must still fire
    // ascending: the min-heap, not insertion order, decides.
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    int s1 = sim.createStream();
    int s2 = sim.createStream();
    sim.delayUntil(0, 0.003);
    sim.delayUntil(s1, 0.002);
    sim.delayUntil(s2, 0.001);
    sim.run();

    std::vector<int> order;
    for (const auto &rec : sim.trace())
        if (rec.kind == OpKind::kDelay)
            order.push_back(rec.stream);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], s2);
    EXPECT_EQ(order[1], s1);
    EXPECT_EQ(order[2], 0);
}

TEST(EventCalendar, EqualTimestampsBreakTiesFifo)
{
    // Three delays expiring at the same instant complete in
    // admission order (stream 0 first) — the seq tie-break that
    // keeps the heap's pop order equal to the old linear scan's.
    test::KernelLauncher launch;
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    int s1 = sim.createStream();
    int s2 = sim.createStream();
    sim.delayUntil(0, 0.005);
    sim.delayUntil(s1, 0.005);
    sim.delayUntil(s2, 0.005);
    launch(sim, 0, kernel(6, 50'000'000));
    launch(sim, s1, kernel(6, 50'000'000));
    launch(sim, s2, kernel(6, 50'000'000));
    sim.run();

    std::vector<int> delay_order;
    for (const auto &rec : sim.trace())
        if (rec.kind == OpKind::kDelay)
            delay_order.push_back(rec.stream);
    ASSERT_EQ(delay_order.size(), 3u);
    EXPECT_EQ(delay_order[0], 0);
    EXPECT_EQ(delay_order[1], s1);
    EXPECT_EQ(delay_order[2], s2);
}

// ---------------------------------------------------------------
// Arena containers
// ---------------------------------------------------------------

TEST(Arena, ResetRetainsChunks)
{
    Arena a;
    void *p = a.allocate(1024, 16);
    ASSERT_NE(p, nullptr);
    std::size_t reserved = a.bytesReserved();
    EXPECT_GT(reserved, 0u);
    a.reset();
    EXPECT_EQ(a.bytesReserved(), reserved); // memory kept
    EXPECT_EQ(a.bytesAllocated(), 0u);      // but reusable
    EXPECT_EQ(a.allocate(1024, 16), p);     // same chunk again
}

TEST(IndexPool, RecyclesSlotsLifo)
{
    IndexPool<std::string> pool;
    std::int32_t a = pool.acquire();
    std::int32_t b = pool.acquire();
    pool[a] = "first";
    pool[b] = "second";
    EXPECT_EQ(pool.live(), 2u);
    pool.release(a);
    EXPECT_EQ(pool.live(), 1u);
    // LIFO free list: the released index comes back first, and the
    // slot's contents survived (callers must re-init; the pool
    // keeps capacity like string buffers warm).
    std::int32_t c = pool.acquire();
    EXPECT_EQ(c, a);
    EXPECT_EQ(pool[c], "first");
    EXPECT_EQ(pool.live(), 2u);
    EXPECT_EQ(pool.capacity(), 2u); // no third slot was built
}

TEST(RingBuffer, FifoAcrossGrowth)
{
    RingBuffer<int> rb;
    for (int i = 0; i < 100; i++)
        rb.push(i);
    for (int i = 0; i < 50; i++) {
        EXPECT_EQ(rb.front(), i);
        rb.pop();
    }
    for (int i = 100; i < 300; i++) // forces several growths
        rb.push(i);
    for (int i = 50; i < 300; i++) {
        ASSERT_FALSE(rb.empty());
        EXPECT_EQ(rb.front(), i);
        rb.pop();
    }
    EXPECT_TRUE(rb.empty());
}

// ---------------------------------------------------------------
// Op storage
// ---------------------------------------------------------------

TEST(OpStorage, StagedInferencesStayCompact)
{
    // An engine launch is one op spanning the context's resolved
    // kernel list, and copies intern their tags, so a staged inference
    // takes the same few compact pool slots whatever the engine's
    // kernel count: no descriptor, name copy or slot per kernel. The
    // backlog spans several 64 KiB arena chunks, so chunk rounding
    // does not dominate the per-op figure.
    const gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    const int inferences = 1000;
    auto slotsPerInference = [&](const char *model) {
        core::Engine engine = core::Builder(nx, core::BuilderConfig())
                                  .build(nn::buildZooModel(model));
        GpuSim sim(nx);
        runtime::ExecutionContext ctx(engine, sim, 0);
        for (int i = 0; i < inferences; i++)
            ctx.enqueueInference(/*staged=*/true);
        const gpusim::SimStats st = sim.simStats();
        EXPECT_EQ(st.ops_enqueued % inferences, 0u) << model;
        EXPECT_LE(st.arena_bytes / st.ops_enqueued, 96u)
            << model << ": " << st.arena_bytes << " B for "
            << st.ops_enqueued << " ops";
        sim.run();
        std::int64_t kernels = 0;
        for (const gpusim::OpRecord &rec : sim.trace())
            if (rec.kind == OpKind::kKernel)
                kernels++;
        EXPECT_EQ(kernels, engine.kernelCount() * inferences) << model;
        return std::make_tuple(st.ops_enqueued / inferences,
                               st.arena_bytes, engine.kernelCount());
    };
    const auto [alexnet_slots, alexnet_bytes, alexnet_kernels] =
        slotsPerInference("alexnet");
    const auto [resnet_slots, resnet_bytes, resnet_kernels] =
        slotsPerInference("resnet-18");
    ASSERT_NE(alexnet_kernels, resnet_kernels);
    EXPECT_EQ(alexnet_slots, resnet_slots);
    EXPECT_EQ(alexnet_bytes, resnet_bytes);
}

TEST(OpStorage, ArenaBytesCountPerSimulatorBuffers)
{
    // The footprint includes the buffers a simulator owns before any
    // op arrives: the kernel-sample batch, reserved at construction,
    // and the share-recompute scratch, one slot per stream in each of
    // its arrays.
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    const std::size_t base = sim.simStats().arena_bytes;
    EXPECT_GE(base, 2 * GpuSim::kKernelSampleBatch * sizeof(double));
    const std::size_t streams = 15;
    for (std::size_t i = 0; i < streams; i++)
        sim.createStream();
    const std::size_t grown = sim.simStats().arena_bytes;
    ASSERT_GT(grown, base);
    EXPECT_GE(grown - base, streams * 8 * sizeof(double));
}

static_assert(sizeof(gpusim::ResolvedKernel) <= 112,
              "the fill-memo id lives in KernelTiming's padding");

/**
 * k1 on one stream and k2 on another, under a 1 ms launch phase.
 * Contended, both leave it together and execute as a pair. Otherwise
 * k2 is admitted 0.5 ms later, and k1 retires before k2 executes.
 * Both shapes hold two active kernels and one host delay at a time.
 */
gpusim::SimStats
pairStats(bool contended)
{
    test::KernelLauncher launch;
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    sim.setTraceMode(TraceMode::kOff);
    sim.setProfilingOverheadUs(1000.0);
    const int s1 = sim.createStream(1.3);
    const int s2 = sim.createStream(0.7);
    launch(sim, s1, kernel(6, 1'000'000));
    sim.hostDelay(s2, contended ? 0.0 : 0.5e-3);
    launch(sim, s2, kernel(6, 2'000'000));
    sim.run();
    return sim.simStats();
}

TEST(OpStorage, FillMemoIsReservedAtTheFirstContendedFill)
{
    // The first fill over two executing kernels reserves the memo table
    // and interns both kernels; nothing else differs.
    const gpusim::SimStats solo = pairStats(false);
    const gpusim::SimStats pair = pairStats(true);
    EXPECT_EQ(solo.fill_memo_bytes, 0u);
    EXPECT_EQ(pair.fill_memo_bytes,
              GpuSim::kFillMemoBytes + 2 * GpuSim::kFillMemoIdBytes);
    EXPECT_EQ(pair.arena_bytes - solo.arena_bytes, pair.fill_memo_bytes);
}

TEST(OpStorage, FillMemoStaysBoundedWhenFull)
{
    // More distinct ordered pairs than the memo holds: one stream runs
    // 72 long kernels in turn, the other 72 short ones under each (it
    // waits for the previous long kernel). The full table clears and
    // reserves nothing more: the memo stays within 512 KiB.
    test::KernelLauncher launch;
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    sim.setTraceMode(TraceMode::kOff);
    const int longs = sim.createStream(1.3);
    const int shorts = sim.createStream(0.6);
    const int n = 72;
    for (int j = 0; j < n; j++) {
        launch(sim, longs, kernel(96, 20'000'000'000 + 10'000'000 * j));
        const gpusim::EventId done = sim.recordEvent(longs);
        for (int i = 0; i < n; i++)
            launch(sim, shorts, kernel(3, 2'000'000 + 10'000 * i));
        sim.waitEvent(shorts, done);
    }
    sim.run();
    const gpusim::SimStats st = sim.simStats();
    EXPECT_GE(st.fill_memo_clears, 1u);
    EXPECT_EQ(st.fill_memo_bytes,
              GpuSim::kFillMemoBytes + 2 * n * GpuSim::kFillMemoIdBytes);
    EXPECT_LE(st.fill_memo_bytes, 512u * 1024);
}

TEST(OpStorage, SoloProgramsReserveNoFillMemo)
{
    // The fleet shape: one context per simulator, so every kernel runs
    // alone and the footprint is what it was without the memo.
    const gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    const core::Engine engine = core::Builder(nx, core::BuilderConfig())
                                    .build(nn::buildZooModel("resnet-18"));
    GpuSim sim(nx);
    runtime::ExecutionContext ctx(engine, sim, 0);
    for (int i = 0; i < 8; i++)
        ctx.enqueueInference();
    sim.run();
    EXPECT_EQ(sim.simStats().fill_memo_bytes, 0u);
    EXPECT_EQ(sim.simStats().fill_memo_hits, 0u);
}

TEST(OpStorage, MovedListsBackTheirLaunches)
{
    // Launches point into a list's heap storage, which a move keeps in
    // place: lists moved while their launches are queued (here by a
    // vector growing past them) still back those launches. Names are
    // longer than the small-string buffer, so a dangling entry would
    // read freed heap.
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    const int s1 = sim.createStream();
    const int n = 24;
    std::vector<KernelDesc> descs;
    for (int i = 0; i < n; i++) {
        descs.push_back(kernel(6 + i, 1'000'000 * (i + 1)));
        descs.back().name =
            "listed_kernel_with_a_long_name_" + std::to_string(i);
    }
    std::vector<gpusim::KernelList> lists;
    for (int i = 0; i < n; i++) {
        const KernelDesc *d = &descs[static_cast<std::size_t>(i)];
        lists.push_back(sim.resolveKernels(i % 2 == 0 ? 0 : s1, {&d, 1}));
        sim.launchKernels(lists.back());
    }
    sim.run();
    ASSERT_EQ(sim.trace().size(), static_cast<std::size_t>(n));
    for (const auto &rec : sim.trace()) {
        const int i = static_cast<int>(rec.kernel.grid_blocks) - 6;
        ASSERT_GE(i, 0);
        ASSERT_LT(i, n);
        EXPECT_EQ(rec.name,
                  "listed_kernel_with_a_long_name_" + std::to_string(i));
        EXPECT_EQ(rec.stream, i % 2 == 0 ? 0 : s1);
        EXPECT_EQ(rec.kernel.flops, 1'000'000 * (i + 1));
    }
}

TEST(OpStorage, ListsLaunchOnlyOnTheirSimulator)
{
    // A list holds timing for one device: another simulator refuses it.
    const KernelDesc k = kernel(6, 1'000'000);
    const KernelDesc *d = &k;
    GpuSim nx(gpusim::DeviceSpec::xavierNX());
    GpuSim agx(gpusim::DeviceSpec::xavierAGX());
    const gpusim::KernelList list = nx.resolveKernels(0, {&d, 1});
    EXPECT_THROW(agx.launchKernels(list), FatalError);
    EXPECT_EQ(agx.simStats().ops_enqueued, 0u);
}

// ---------------------------------------------------------------
// Trace modes
// ---------------------------------------------------------------

/** One saturated stream: N kernels back to back. */
void
enqueueBurst(test::KernelLauncher &launch, GpuSim &sim, int n)
{
    for (int i = 0; i < n; i++)
        launch(sim, 0, kernel(12, 80'000'000));
}

TEST(TraceMode, SampledAndOffThinTheTraceOnly)
{
    const int n = 64;
    test::KernelLauncher launch;
    GpuSim full(gpusim::DeviceSpec::xavierNX());
    GpuSim sampled(gpusim::DeviceSpec::xavierNX());
    sampled.setTraceMode(TraceMode::kSampled, 4);
    GpuSim off(gpusim::DeviceSpec::xavierNX());
    off.setTraceMode(TraceMode::kOff);
    enqueueBurst(launch, full, n);
    enqueueBurst(launch, sampled, n);
    enqueueBurst(launch, off, n);
    full.run();
    sampled.run();
    off.run();

    // The trace mode must not perturb the simulation itself.
    EXPECT_EQ(full.nowSeconds(), sampled.nowSeconds());
    EXPECT_EQ(full.nowSeconds(), off.nowSeconds());
    EXPECT_EQ(full.opsCompleted(), sampled.opsCompleted());
    EXPECT_EQ(full.opsCompleted(), off.opsCompleted());

    EXPECT_EQ(full.trace().size(), static_cast<std::size_t>(n));
    EXPECT_EQ(sampled.trace().size(),
              static_cast<std::size_t>((n + 3) / 4));
    EXPECT_TRUE(off.trace().empty());

    EXPECT_EQ(full.simStats().trace_records, full.trace().size());
    EXPECT_EQ(sampled.simStats().trace_records,
              sampled.trace().size());
    EXPECT_EQ(off.simStats().trace_records, 0u);

    // Sampled records are a strided subset of the full trace.
    for (std::size_t i = 0; i < sampled.trace().size(); i++) {
        EXPECT_EQ(sampled.trace()[i].start_s,
                  full.trace()[i * 4].start_s);
        EXPECT_EQ(sampled.trace()[i].end_s,
                  full.trace()[i * 4].end_s);
    }
}

TEST(TraceMode, GpuTraceFooterStatesSampling)
{
    test::KernelLauncher launch;
    GpuSim sim(gpusim::DeviceSpec::xavierNX());
    sim.setTraceMode(TraceMode::kSampled, 4);
    enqueueBurst(launch, sim, 16);
    sim.run();
    std::ostringstream os;
    profile::printGpuTrace(os, sim, 64);
    EXPECT_NE(os.str().find("sampled 1/4"), std::string::npos);
    EXPECT_NE(os.str().find("4 of 16 ops recorded"),
              std::string::npos);

    GpuSim bare(gpusim::DeviceSpec::xavierNX());
    enqueueBurst(launch, bare, 16);
    bare.run();
    std::ostringstream os2;
    profile::printGpuTrace(os2, bare, 64);
    EXPECT_EQ(os2.str().find("sampled"), std::string::npos);
}

// ---------------------------------------------------------------
// Serial vs parallel replay byte-identity
// ---------------------------------------------------------------

struct ServeArtifacts
{
    std::string report;
    std::string metrics;
    std::string trace;
};

ServeArtifacts
runServe(int sim_threads, const std::string &trace_path)
{
    obs::MetricRegistry::global().reset();
    obs::FakeClock fake(1'000'000, 500);
    obs::ScopedClock scoped(&fake);

    serve::ServeConfig cfg;
    serve::ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 40.0;
    mc.arrivals.qps = 80.0;
    cfg.models.push_back(mc);
    serve::ModelConfig mc2;
    mc2.model = "mobilenetv1";
    mc2.slo_ms = 20.0;
    mc2.arrivals.qps = 120.0;
    cfg.models.push_back(mc2);
    cfg.devices.push_back(gpusim::DeviceSpec::xavierNX());
    cfg.devices.push_back(gpusim::DeviceSpec::xavierAGX());
    cfg.duration_s = 2.0;
    cfg.seed = 7;
    cfg.sim_threads = sim_threads;
    cfg.trace_out = trace_path;

    serve::ServeReport rep = serve::runServer(cfg);

    ServeArtifacts out;
    out.report = rep.toJson();
    out.metrics = obs::MetricRegistry::global().toJson();
    std::ifstream f(trace_path);
    std::stringstream ss;
    ss << f.rdbuf();
    out.trace = ss.str();
    std::remove(trace_path.c_str());
    return out;
}

TEST(ParallelReplay, ByteIdenticalToSerial)
{
    ServeArtifacts serial = runServe(1, "eventqueue_serial.json");
    ASSERT_FALSE(serial.trace.empty());
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        ServeArtifacts parallel =
            runServe(threads, "eventqueue_parallel.json");
        EXPECT_EQ(serial.report, parallel.report);
        EXPECT_EQ(serial.metrics, parallel.metrics);
        EXPECT_EQ(serial.trace, parallel.trace);
    }
}

TEST(ParallelReplay, FleetWiderThanTheWindowMatchesSerial)
{
    // 16 nodes at 2 threads: at most 4 simulators are alive, so the
    // enqueueing caller waits on retiring tasks mid-replay.
    auto run = [](int threads) {
        obs::MetricRegistry::global().reset();
        fleet::FleetConfig cfg;
        cfg.groups.push_back(fleet::parseNodeGroup("nx:12"));
        cfg.groups.push_back(fleet::parseNodeGroup("agx:4"));
        fleet::FleetModelConfig mc;
        mc.model = "alexnet";
        mc.slo_ms = 100.0;
        mc.arrivals.qps = 1600.0;
        cfg.models.push_back(mc);
        cfg.duration_s = 0.5;
        cfg.seed = 5;
        cfg.sim_threads = threads;
        std::string report = fleet::runFleet(cfg).toJson();
        return std::make_pair(report,
                              obs::MetricRegistry::global().toJson());
    };
    auto serial = run(1);
    auto parallel = run(2);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_NE(serial.first.find("\"nodes\": 16"), std::string::npos);
}

} // namespace
} // namespace edgert

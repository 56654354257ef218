/**
 * @file
 * Tests for the execution context and measurement harnesses:
 * latency protocol decomposition, profiler perturbation, throughput
 * scaling and utilization bounds.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/builder.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "runtime/context.hh"
#include "runtime/measure.hh"

namespace edgert::runtime {
namespace {

core::Engine
buildEngine(const std::string &model, const gpusim::DeviceSpec &dev,
            std::uint64_t id = 1)
{
    nn::Network net = nn::buildZooModel(model);
    core::BuilderConfig cfg;
    cfg.build_id = id;
    return core::Builder(dev, cfg).build(net);
}

TEST(Latency, DecompositionSumsWithinTotal)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("resnet-18", nx);
    auto lat = measureLatency(e, nx);
    EXPECT_EQ(lat.samples_ms.size(), 10u);
    EXPECT_GT(lat.mean_ms, 0.0);
    EXPECT_GT(lat.memcpy_mean_ms, 0.0);
    EXPECT_GT(lat.kernel_mean_ms, 0.0);
    // Kernel + memcpy time (plus launch gaps) make up the total.
    EXPECT_LE(lat.memcpy_mean_ms + lat.kernel_mean_ms,
              lat.mean_ms * 1.001);
    EXPECT_GT(lat.memcpy_mean_ms + lat.kernel_mean_ms,
              lat.mean_ms * 0.5);
}

TEST(Latency, ReproducibleWithSameSeeds)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("googlenet", nx);
    auto a = measureLatency(e, nx);
    auto b = measureLatency(e, nx);
    EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
    EXPECT_DOUBLE_EQ(a.std_ms, b.std_ms);
}

TEST(Latency, ProfilerAddsOverhead)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("inception-v4", nx);
    LatencyOptions with, without;
    without.with_profiler = false;
    auto t_with = measureLatency(e, nx, with);
    auto t_without = measureLatency(e, nx, without);
    // Table VIII vs IX: nvprof inflates latency, substantially for
    // kernel-rich models.
    EXPECT_GT(t_with.mean_ms, t_without.mean_ms * 1.1);
}

TEST(Latency, SkippingWeightUploadDropsMemcpy)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("resnet-18", nx);
    LatencyOptions cold, warm;
    warm.upload_weights_per_run = false;
    auto t_cold = measureLatency(e, nx, cold);
    auto t_warm = measureLatency(e, nx, warm);
    EXPECT_LT(t_warm.mean_ms, t_cold.mean_ms * 0.6);
}

TEST(Latency, NonzeroStdFromSystemNoise)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("resnet-18", nx);
    auto lat = measureLatency(e, nx);
    EXPECT_GT(lat.std_ms, 0.0);
    LatencyOptions quiet;
    quiet.system_noise = 0.0;
    auto exact = measureLatency(e, nx, quiet);
    EXPECT_LT(exact.std_ms, 1e-9);
}

TEST(Profile, KernelAggregatesCoverEngine)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    std::vector<KernelProfile> prof;
    auto lat = profileLatency(e, nx, prof);
    EXPECT_FALSE(prof.empty());
    double total = 0.0;
    std::int64_t calls = 0;
    for (const auto &k : prof) {
        EXPECT_GT(k.calls, 0);
        EXPECT_GT(k.mean_ms, 0.0);
        total += k.total_ms;
        calls += k.calls;
    }
    EXPECT_EQ(calls, e.kernelCount());
    EXPECT_NEAR(total, lat.kernel_mean_ms, lat.kernel_mean_ms * 0.2);
}

TEST(Throughput, PositiveAndBounded)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("googlenet", nx);
    ThroughputOptions topt;
    topt.threads = 2;
    topt.frames_per_thread = 10;
    auto r = measureThroughput(e, nx, topt);
    EXPECT_GT(r.aggregate_fps, 0.0);
    EXPECT_NEAR(r.per_thread_fps * 2, r.aggregate_fps, 1e-9);
    EXPECT_GT(r.gpu_util_pct, 0.0);
    EXPECT_LE(r.gpu_util_pct, 100.0);
    EXPECT_LE(r.copy_busy_pct, 100.0);
}

TEST(Throughput, MoreThreadsNeverHurtMuch)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    double prev = 0.0;
    for (int t : {1, 2, 4, 8}) {
        ThroughputOptions topt;
        topt.threads = t;
        topt.frames_per_thread = 12;
        auto r = measureThroughput(e, nx, topt);
        EXPECT_GT(r.aggregate_fps, prev * 0.95) << t;
        prev = r.aggregate_fps;
    }
}

TEST(Throughput, SaturatesAtHighThreadCounts)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    auto fps = [&](int t) {
        ThroughputOptions topt;
        topt.threads = t;
        topt.frames_per_thread = 12;
        return measureThroughput(e, nx, topt).aggregate_fps;
    };
    double f8 = fps(8), f16 = fps(16);
    // Marginal gain well below linear scaling.
    EXPECT_LT(f16, f8 * 1.3);
}

TEST(Throughput, OptimizedBeatsUnoptimizedBy20x)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel("resnet-18");
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    core::Engine opt = core::Builder(nx, cfg).build(net);
    core::Engine raw = core::Builder(nx, cfg).buildUnoptimized(net);
    ThroughputOptions topt;
    topt.frames_per_thread = 6;
    double f_opt = measureThroughput(opt, nx, topt).aggregate_fps;
    double f_raw = measureThroughput(raw, nx, topt).aggregate_fps;
    EXPECT_GT(f_opt / f_raw, 20.0);
    EXPECT_LT(f_opt / f_raw, 100.0);
}

TEST(Throughput, AgxFasterAtMaxClock)
{
    core::Engine e =
        buildEngine("tiny-yolov3", gpusim::DeviceSpec::xavierNX());
    ThroughputOptions topt;
    topt.threads = 8;
    topt.frames_per_thread = 10;
    double nx = measureThroughput(
                    e, gpusim::DeviceSpec::xavierNX(), topt)
                    .aggregate_fps;
    double agx = measureThroughput(
                     e, gpusim::DeviceSpec::xavierAGX(), topt)
                     .aggregate_fps;
    EXPECT_GT(agx, nx * 1.2);
}

TEST(Throughput, Equation1BoundIsPlausible)
{
    // Paper Eq. 1: the thread bound scales with memory bandwidth.
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    core::Engine e_nx = buildEngine("tiny-yolov3", nx);
    core::Engine e_agx = buildEngine("tiny-yolov3", agx);
    int n_nx = estimateMaxThreads(e_nx, nx);
    int n_agx = estimateMaxThreads(e_agx, agx);
    EXPECT_GT(n_nx, 4);
    EXPECT_LT(n_nx, 100);
    // The AGX bound exceeds the NX bound (paper: 28 vs 36).
    EXPECT_GT(n_agx, n_nx);
}

TEST(Context, FootprintIncludesWeightsAndArena)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    std::int64_t fp = contextFootprintBytes(e);
    EXPECT_GT(fp, e.weightBytes());
    EXPECT_LT(fp, 2LL << 30);
}

TEST(Context, FootprintMonotoneInEngineSize)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    // Growing the batch grows the I/O bindings and activation
    // arena; growing the network grows the weights. Either way the
    // per-context footprint must grow with the engine.
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    core::Builder builder(nx, cfg);
    std::int64_t prev = 0;
    for (std::int64_t b : {1, 4, 16}) {
        core::Engine e =
            builder.build(nn::buildZooModel("alexnet", b));
        std::int64_t fp = contextFootprintBytes(e);
        EXPECT_GT(fp, prev);
        prev = fp;
    }
    std::int64_t small =
        contextFootprintBytes(buildEngine("resnet-18", nx));
    std::int64_t big =
        contextFootprintBytes(buildEngine("vgg-16", nx));
    EXPECT_GT(big, small);
}

TEST(Context, FootprintBoundsConcurrencyHarnessWithinRam)
{
    // The Eq. 1 thread estimate is what the concurrency harness
    // (and EdgeServe placement) runs with; that many contexts must
    // fit in device RAM or the bound would be unusable.
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    int n = estimateMaxThreads(e, nx);
    ASSERT_GT(n, 0);
    std::int64_t ram =
        static_cast<std::int64_t>(nx.ram_gb * (1LL << 30));
    EXPECT_LE(n * contextFootprintBytes(e), ram);
}

TEST(Context, PipelinedEnqueueOverlapsCopyAndComputeStreams)
{
    // At the DES level a pipelined enqueue must put its copies on a
    // dedicated stream whose transfers run concurrently with the
    // compute stream's kernels (double buffering), not serialize
    // ahead of them.
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("resnet-18", nx);
    gpusim::GpuSim sim(nx);
    ExecutionContext ctx(e, sim, 0);
    ctx.enqueuePipelinedInference();
    sim.run();

    bool overlapped = false;
    for (const auto &copy : sim.trace()) {
        if (copy.kind != gpusim::OpKind::kMemcpyH2D &&
            copy.kind != gpusim::OpKind::kMemcpyD2H)
            continue;
        for (const auto &k : sim.trace()) {
            if (k.kind != gpusim::OpKind::kKernel ||
                k.stream == copy.stream)
                continue;
            if (copy.start_s < k.end_s && k.start_s < copy.end_s)
                overlapped = true;
        }
    }
    EXPECT_TRUE(overlapped);
}

TEST(Context, PipelinedInferenceOverlapsCopies)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("tiny-yolov3", nx);
    ThroughputOptions serial, piped;
    serial.pipelined = false;
    serial.threads = piped.threads = 1;
    serial.frames_per_thread = piped.frames_per_thread = 10;
    double f_serial = measureThroughput(e, nx, serial).aggregate_fps;
    double f_piped = measureThroughput(e, nx, piped).aggregate_fps;
    EXPECT_GT(f_piped, f_serial);
}

TEST(Context, ResolvedListsReproducePinnedTimes)
{
    // Each context resolves its engine's kernels once, for its own
    // stream. Contexts a and b run one engine's descriptors on streams
    // of weight 1 and 4: a runs alone, then b alone, so the same
    // descriptors take their solo share at both weights; b's last
    // kernels share the device with c, which launches its one list
    // three times and finishes alone. c's weight is 0.7 because
    // 6 * 0.7 / 0.7 rounds below 6 (4 is a power of two, so
    // 6 * 4 / 4 is exact): a solo share taken at the wrong weight
    // changes its times. Every kernel
    // record's (start, end), in trace order, and the final time are
    // pinned as hexfloats from the simulator before the lists existed,
    // when timing was cached per descriptor address.
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = buildEngine("alexnet", nx);
    gpusim::GpuSim sim(nx);
    const int light = sim.createStream(1.0);
    const int heavy = sim.createStream(4.0);
    const int odd = sim.createStream(0.7);
    ExecutionContext a(e, sim, light);
    ExecutionContext b(e, sim, heavy);
    ExecutionContext c(e, sim, odd);
    a.enqueueInference();
    b.enqueueHostGap(8e-3);
    b.enqueueInference();
    c.enqueueHostGap(12e-3);
    for (int i = 0; i < 3; i++) {
        c.enqueueInference();
        c.enqueueHostGap(0.2e-3);
    }
    sim.run();

    const std::vector<std::array<double, 2>> pinned = {
        {0x1.f3973d6c6c2c8p-13, 0x1.8374ebb10274cp-12},
        {0x1.8374ebb10274cp-12, 0x1.c11cecec6bd75p-12},
        {0x1.c11cecec6bd75p-12, 0x1.dce01ec74ab1bp-12},
        {0x1.dce01ec74ab1bp-12, 0x1.5aa8edf393593p-11},
        {0x1.5aa8edf393593p-11, 0x1.6f9875f1a02e4p-11},
        {0x1.6f9875f1a02e4p-11, 0x1.7996e50786804p-11},
        {0x1.7996e50786804p-11, 0x1.d0332ccc6dea1p-11},
        {0x1.d0332ccc6dea1p-11, 0x1.08f96f774f68fp-10},
        {0x1.08f96f774f68fp-10, 0x1.1e8d78210a37cp-10},
        {0x1.1e8d78210a37cp-10, 0x1.20e83a9728677p-10},
        {0x1.20e83a9728677p-10, 0x1.d672523b832dp-9},
        {0x1.d672523b832dp-9, 0x1.33e79b02d1a23p-8},
        {0x1.33e79b02d1a23p-8, 0x1.4392d691155adp-8},
        {0x1.4392d691155adp-8, 0x1.43fc13b9a85bap-8},
        {0x1.43fc13b9a85bap-8, 0x1.44685dc96fdaap-8},
        {0x1.44685dc96fdaap-8, 0x1.44d4a7d93759ap-8},
        {0x1.0df33a24cc507p-7, 0x1.1240848ca2b37p-7},
        {0x1.1240848ca2b37p-7, 0x1.142dc4967dfe9p-7},
        {0x1.142dc4967dfe9p-7, 0x1.150bde2554f57p-7},
        {0x1.150bde2554f57p-7, 0x1.1bcf6c0e53d58p-7},
        {0x1.1bcf6c0e53d58p-7, 0x1.1d1e648e34a2dp-7},
        {0x1.1d1e648e34a2dp-7, 0x1.1dbe4b7f9307fp-7},
        {0x1.1dbe4b7f9307fp-7, 0x1.23280ffbe17e9p-7},
        {0x1.23280ffbe17e9p-7, 0x1.27440b1e048d1p-7},
        {0x1.27440b1e048d1p-7, 0x1.29f68c333be6fp-7},
        {0x1.29f68c333be6fp-7, 0x1.2a41e481ffacfp-7},
        {0x1.2a41e481ffacfp-7, 0x1.7bc171bdfb6b5p-7},
        {0x1.7bc171bdfb6b5p-7, 0x1.a018aab083713p-7},
        {0x1.9105a8bc59a05p-7, 0x1.a58655a5f8624p-7},
        {0x1.a018aab083713p-7, 0x1.a8d35269c14e8p-7},
        {0x1.a8d35269c14e8p-7, 0x1.a908577c634c5p-7},
        {0x1.a908577c634c5p-7, 0x1.a93f2756da877p-7},
        {0x1.a93f2756da877p-7, 0x1.a975f73151c29p-7},
        {0x1.a58655a5f8624p-7, 0x1.aa21cd1f54663p-7},
        {0x1.aa21cd1f54663p-7, 0x1.aaffe6ae2b5d1p-7},
        {0x1.aaffe6ae2b5d1p-7, 0x1.b854ad9946fb6p-7},
        {0x1.b854ad9946fb6p-7, 0x1.b9a3a61927c8bp-7},
        {0x1.b9a3a61927c8bp-7, 0x1.ba438d0a862ddp-7},
        {0x1.ba438d0a862ddp-7, 0x1.bfad5186d4a47p-7},
        {0x1.bfad5186d4a47p-7, 0x1.c3c94ca8f7b2fp-7},
        {0x1.c3c94ca8f7b2fp-7, 0x1.c8fbf9ec8444ep-7},
        {0x1.c8fbf9ec8444ep-7, 0x1.c947523b480aep-7},
        {0x1.c947523b480aep-7, 0x1.0d636fbba1e4ap-6},
        {0x1.0d636fbba1e4ap-6, 0x1.1f8f0c34e5e78p-6},
        {0x1.1f8f0c34e5e78p-6, 0x1.2379db1876d5ap-6},
        {0x1.2379db1876d5ap-6, 0x1.23942a629b95dp-6},
        {0x1.23942a629b95dp-6, 0x1.23af3ce68d759p-6},
        {0x1.23af3ce68d759p-6, 0x1.23ca4f6a7f555p-6},
        {0x1.2b66fed458f31p-6, 0x1.2e1102b862acbp-6},
        {0x1.2e1102b862acbp-6, 0x1.2f07a2bd50523p-6},
        {0x1.2f07a2bd50523p-6, 0x1.2f76af84bbcd9p-6},
        {0x1.2f76af84bbcd9p-6, 0x1.362112fa499cbp-6},
        {0x1.362112fa499cbp-6, 0x1.36c88f3a3a035p-6},
        {0x1.36c88f3a3a035p-6, 0x1.371882b2e935ep-6},
        {0x1.371882b2e935ep-6, 0x1.39cd64f110713p-6},
        {0x1.39cd64f110713p-6, 0x1.3bdb628221f87p-6},
        {0x1.3bdb628221f87p-6, 0x1.3e74b923e8416p-6},
        {0x1.3e74b923e8416p-6, 0x1.3e9a654b4a245p-6},
        {0x1.3e9a654b4a245p-6, 0x1.675a2be948037p-6},
        {0x1.675a2be948037p-6, 0x1.7985c8628c066p-6},
        {0x1.7985c8628c066p-6, 0x1.7d7097461cf48p-6},
        {0x1.7d7097461cf48p-6, 0x1.7d8ae69041b4bp-6},
        {0x1.7d8ae69041b4bp-6, 0x1.7da5f91433947p-6},
        {0x1.7da5f91433947p-6, 0x1.7dc10b9825743p-6},
        {0x1.855dbb01ff11fp-6, 0x1.8807bee608cb9p-6},
        {0x1.8807bee608cb9p-6, 0x1.88fe5eeaf6711p-6},
        {0x1.88fe5eeaf6711p-6, 0x1.896d6bb261ec7p-6},
        {0x1.896d6bb261ec7p-6, 0x1.9017cf27efbb9p-6},
        {0x1.9017cf27efbb9p-6, 0x1.90bf4b67e0223p-6},
        {0x1.90bf4b67e0223p-6, 0x1.910f3ee08f54cp-6},
        {0x1.910f3ee08f54cp-6, 0x1.93c4211eb6901p-6},
        {0x1.93c4211eb6901p-6, 0x1.95d21eafc8175p-6},
        {0x1.95d21eafc8175p-6, 0x1.986b75518e604p-6},
        {0x1.986b75518e604p-6, 0x1.98912178f0433p-6},
        {0x1.98912178f0433p-6, 0x1.c150e816ee225p-6},
        {0x1.c150e816ee225p-6, 0x1.d37c849032254p-6},
        {0x1.d37c849032254p-6, 0x1.d7675373c3136p-6},
        {0x1.d7675373c3136p-6, 0x1.d781a2bde7d39p-6},
        {0x1.d781a2bde7d39p-6, 0x1.d79cb541d9b35p-6},
        {0x1.d79cb541d9b35p-6, 0x1.d7b7c7c5cb931p-6},
    };
    std::vector<std::array<double, 2>> times;
    for (const auto &rec : sim.trace())
        if (rec.kind == gpusim::OpKind::kKernel)
            times.push_back({rec.start_s, rec.end_s});
    ASSERT_EQ(e.kernelCount(), 16);
    EXPECT_EQ(times, pinned);
    EXPECT_EQ(sim.nowSeconds(), 0x1.db6d48b4cc587p-6);
}

} // namespace
} // namespace edgert::runtime

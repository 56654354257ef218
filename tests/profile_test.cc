/**
 * @file
 * Unit tests for the nvprof-style summarizer and the tegrastats
 * sampler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "kernel_launcher.hh"
#include "profile/nvprof.hh"
#include "profile/tegrastats.hh"

namespace edgert::profile {
namespace {

gpusim::KernelDesc
kernel(const std::string &name, std::int64_t flops)
{
    gpusim::KernelDesc k;
    k.name = name;
    k.grid_blocks = 12;
    k.flops = flops;
    k.tensor_core = true;
    k.efficiency = 0.5;
    return k;
}

TEST(Nvprof, SummaryAggregatesByName)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    launch(sim, 0, kernel("a", 100'000'000));
    launch(sim, 0, kernel("a", 100'000'000));
    launch(sim, 0, kernel("b", 400'000'000));
    sim.memcpyH2D(0, 1'000'000, 1, "w");
    sim.run();

    auto rows = summarize(sim.trace());
    ASSERT_EQ(rows.size(), 3u);
    // Sorted by total time: b > a (two short calls) or a's pair...
    double total_pct = 0.0;
    int a_calls = 0;
    for (const auto &r : rows) {
        total_pct += r.pct_of_total;
        if (r.name == "a")
            a_calls = r.calls;
        EXPECT_LE(r.min_ms, r.avg_ms);
        EXPECT_LE(r.avg_ms, r.max_ms);
        EXPECT_NEAR(r.avg_ms * r.calls, r.total_ms, 1e-9);
    }
    EXPECT_EQ(a_calls, 2);
    EXPECT_NEAR(total_pct, 100.0, 1e-6);
}

TEST(Nvprof, SummaryIgnoresMarkersAndDelays)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    sim.recordEvent(0);
    sim.hostDelay(0, 0.001);
    launch(sim, 0, kernel("k", 1'000'000));
    sim.run();
    auto rows = summarize(sim.trace());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "k");
}

TEST(Nvprof, MemcpyRowsNamedLikeNvprof)
{
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    sim.memcpyH2D(0, 1'000'000, 1, "weights");
    sim.memcpyD2H(0, 500'000, 1, "out");
    sim.run();
    auto rows = summarize(sim.trace());
    ASSERT_EQ(rows.size(), 2u);
    bool h2d = false, d2h = false;
    for (const auto &r : rows) {
        h2d |= r.name == "[CUDA memcpy HtoD]";
        d2h |= r.name == "[CUDA memcpy DtoH]";
    }
    EXPECT_TRUE(h2d);
    EXPECT_TRUE(d2h);
}

TEST(Nvprof, GpuTraceTruncates)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    for (int i = 0; i < 10; i++)
        launch(sim, 0, kernel("k", 1'000'000));
    sim.run();
    std::ostringstream oss;
    std::size_t truncated = printGpuTrace(oss, sim.trace(), 3);
    EXPECT_EQ(truncated, 7u);
    EXPECT_NE(oss.str().find("... 7 more rows"), std::string::npos);

    std::ostringstream full;
    EXPECT_EQ(printGpuTrace(full, sim.trace(), 64), 0u);
    EXPECT_EQ(full.str().find("more rows"), std::string::npos);
}

TEST(Nvprof, InvocationTimesInOrder)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    launch(sim, 0, kernel("x", 100'000'000));
    launch(sim, 0, kernel("y", 1'000'000));
    launch(sim, 0, kernel("x", 100'000'000));
    sim.run();
    auto times = invocationTimesMs(sim.trace(), "x");
    ASSERT_EQ(times.size(), 2u);
    EXPECT_GT(times[0], 0.0);
    EXPECT_TRUE(invocationTimesMs(sim.trace(), "zzz").empty());
}

TEST(Tegrastats, WindowsAreDisjoint)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    Tegrastats stats(sim, 1024.0);

    launch(sim, 0, kernel("k", 500'000'000));
    sim.run();
    auto s1 = stats.sample();
    EXPECT_GT(s1.gr3d_pct, 0.0);

    // No work in the second window: utilization is zero... but the
    // window is also zero-length; enqueue an idle delay.
    sim.hostDelay(0, 0.01);
    sim.run();
    auto s2 = stats.sample();
    EXPECT_NEAR(s2.gr3d_pct, 0.0, 1e-9);
    EXPECT_EQ(stats.samples().size(), 2u);
}

TEST(Tegrastats, PrintsFormat)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierAGX());
    Tegrastats stats(sim, 4096.0);
    launch(sim, 0, kernel("k", 100'000'000));
    sim.run();
    stats.sample();
    std::ostringstream oss;
    stats.print(oss);
    EXPECT_NE(oss.str().find("RAM 4096/32768MB"), std::string::npos);
    EXPECT_NE(oss.str().find("GR3D_FREQ"), std::string::npos);
    EXPECT_NE(oss.str().find("VDD_GPU"), std::string::npos);
}

TEST(Tegrastats, PowerScalesWithLoadAndClock)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    EXPECT_DOUBLE_EQ(nx.gpuPowerMw(0.0), nx.gpu_idle_mw);
    EXPECT_GT(nx.gpuPowerMw(1.0), nx.gpuPowerMw(0.5));
    // Pinned 599 MHz draws far less than MAXN at the same load.
    EXPECT_LT(nx.gpuPowerMw(1.0),
              nx.atMaxClock().gpuPowerMw(1.0) * 0.3);
    EXPECT_LE(nx.atMaxClock().gpuPowerMw(1.0), nx.gpu_peak_mw);
}

} // namespace
} // namespace edgert::profile

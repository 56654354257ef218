/**
 * @file
 * Tests for the Graphviz and Chrome-trace exporters, and the
 * edgertexec-adjacent file workflows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/builder.hh"
#include "gpusim/device.hh"
#include "kernel_launcher.hh"
#include "nn/dot.hh"
#include "nn/model_zoo.hh"
#include "obs/trace.hh"
#include "profile/trace_export.hh"
#include "runtime/context.hh"

namespace edgert {
namespace {

TEST(Dot, ContainsAllLayersAndEdges)
{
    nn::Network net = nn::buildZooModel("tiny-yolov3");
    std::string dot = nn::toDot(net);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    for (const auto &l : net.layers())
        EXPECT_NE(dot.find("\"" + l.name + "\""), std::string::npos)
            << l.name;
    // Shape annotation on an edge.
    EXPECT_NE(dot.find("1x3x416x416"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(dot.back(), '\n');
    EXPECT_NE(dot.find("}\n"), std::string::npos);
}

TEST(Dot, OptionsToggleAnnotations)
{
    nn::Network net = nn::buildZooModel("mtcnn");
    nn::DotOptions bare;
    bare.show_shapes = false;
    bare.show_params = false;
    std::string dot = nn::toDot(net, bare);
    EXPECT_EQ(dot.find("params"), std::string::npos);
    EXPECT_EQ(dot.find("1x3x12x12"), std::string::npos);
}

TEST(ChromeTrace, ValidJsonShape)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel("mtcnn");
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    core::Engine e = core::Builder(nx, cfg).build(net);

    gpusim::GpuSim sim(nx);
    runtime::ExecutionContext ctx(e, sim, 0);
    ctx.enqueueWeightUpload();
    ctx.enqueueInference(true, true);
    sim.run();

    std::ostringstream oss;
    profile::writeChromeTrace(oss, sim.trace(), "xavier-nx");
    std::string json = oss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"memcpy_h2d\""),
              std::string::npos);
    EXPECT_NE(json.find("xavier-nx"), std::string::npos);
    // Every op except markers appears.
    std::size_t events = 0;
    for (std::size_t p = json.find("\"ph\":\"X\"");
         p != std::string::npos;
         p = json.find("\"ph\":\"X\"", p + 1))
        events++;
    std::size_t expected = 0;
    for (const auto &rec : sim.trace())
        if (rec.kind != gpusim::OpKind::kMarker)
            expected++;
    EXPECT_EQ(events, expected);
}

TEST(ChromeTrace, NamesStreamTracksViaMetadata)
{
    test::KernelLauncher launch;
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::GpuSim sim(nx);
    gpusim::KernelDesc k;
    k.name = "probe";
    k.grid_blocks = 6;
    k.flops = 1'000'000;
    k.efficiency = 0.5;
    int s2 = sim.createStream();
    launch(sim, 0, k);
    launch(sim, s2, k);
    sim.run();

    std::ostringstream oss;
    profile::writeChromeTrace(oss, sim.trace(), "meta");
    std::string json = oss.str();

    std::string error;
    EXPECT_TRUE(jsonValid(json, &error)) << error;
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("stream 0 (meta)"), std::string::npos);
    EXPECT_NE(json.find("stream " + std::to_string(s2) + " (meta)"),
              std::string::npos);
}

TEST(ChromeTrace, MergedTraceIsValidJsonWithBothClocks)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    gpusim::KernelDesc k;
    k.name = "dev_op";
    k.grid_blocks = 6;
    k.flops = 1'000'000;
    k.efficiency = 0.5;
    launch(sim, 0, k);
    sim.run();

    // Hand-built host spans: a hostile name must not break the
    // document, and host timestamps get rebased to zero.
    obs::SpanRecord s1;
    s1.name = "outer \"quoted\"\nname";
    s1.thread = 0;
    s1.start_ns = 5'000'000;
    s1.end_ns = 6'000'000;
    s1.args.push_back({"key", "val\\ue"});
    obs::SpanRecord s2;
    s2.name = "inner";
    s2.thread = 1;
    s2.start_ns = 5'200'000;
    s2.end_ns = 5'400'000;

    std::ostringstream oss;
    profile::writeMergedChromeTrace(oss, {s1, s2}, sim.trace(),
                                    "merged");
    std::string json = oss.str();

    std::string error;
    ASSERT_TRUE(jsonValid(json, &error)) << error;
    EXPECT_NE(json.find("host thread 0"), std::string::npos);
    EXPECT_NE(json.find("host thread 1"), std::string::npos);
    EXPECT_NE(json.find("dev_op"), std::string::npos);
    // Earliest host span is rebased to ts 0.
    EXPECT_NE(json.find("\"ts\":0,"), std::string::npos);
}

TEST(ChromeTrace, SavesToFile)
{
    test::KernelLauncher launch;
    gpusim::GpuSim sim(gpusim::DeviceSpec::xavierNX());
    gpusim::KernelDesc k;
    k.name = "probe";
    k.grid_blocks = 6;
    k.flops = 1'000'000;
    k.efficiency = 0.5;
    launch(sim, 0, k);
    sim.run();

    std::string path = ::testing::TempDir() + "/trace.json";
    profile::saveChromeTrace(path, sim.trace(), "test");
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("probe"), std::string::npos);
    std::remove(path.c_str());

    EXPECT_THROW(profile::saveChromeTrace("/no/such/dir/x.json",
                                          sim.trace(), "t"),
                 FatalError);
}

} // namespace
} // namespace edgert

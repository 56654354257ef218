/**
 * @file
 * Tests for the BSP performance predictor: self-prediction after
 * calibration is near-exact, cross-platform prediction degrades,
 * and rebuilt engines shift the error (the paper's §VI-B point).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/builder.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "perfmodel/bsp.hh"
#include "runtime/context.hh"

namespace edgert::perfmodel {
namespace {

std::vector<gpusim::OpRecord>
traceOnce(const core::Engine &e, const gpusim::DeviceSpec &dev,
          double noise = 0.0)
{
    gpusim::GpuSim sim(dev);
    if (noise > 0.0)
        sim.setTimingJitter(noise, 7);
    runtime::ExecutionContext ctx(e, sim, 0);
    ctx.enqueueInference();
    sim.run();
    return sim.trace();
}

core::Engine
build(const std::string &model, std::uint64_t id,
      const gpusim::DeviceSpec &dev)
{
    nn::Network net = nn::buildZooModel(model);
    core::BuilderConfig cfg;
    cfg.build_id = id;
    return core::Builder(dev, cfg).build(net);
}

TEST(Bsp, RawTimeIsPositiveAndScalesWithClock)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    MicroArchParams p = MicroArchParams::measure(nx);
    gpusim::KernelDesc k;
    k.instructions = 1'000'000;
    k.ldg = 100'000;
    k.stg = 10'000;
    k.lds = 50'000;
    k.sts = 20'000;
    k.l1_hits = 60'000;
    k.l2_hits = 20'000;
    double t1 = bspRawMs(k, nx, p);
    double t2 = bspRawMs(k, nx.withClock(nx.gpu_clock_ghz * 2), p);
    EXPECT_GT(t1, 0.0);
    EXPECT_NEAR(t1 / t2, 2.0, 1e-9);
}

TEST(Bsp, SelfPredictionIsExactWithoutNoise)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = build("googlenet", 1, nx);
    auto trace = traceOnce(e, nx);
    BspModel bsp(nx);
    bsp.calibrate(trace);
    auto pred = bsp.predict(trace, nx);
    EXPECT_EQ(pred.kernels_without_lambda, 0);
    EXPECT_LT(pred.error_pct, 1.0);
}

TEST(Bsp, CrossPlatformPredictionHasError)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    core::Engine e = build("inception-v4", 1, nx);
    BspModel bsp(nx);
    bsp.calibrate(traceOnce(e, nx));
    auto pred = bsp.predict(traceOnce(e, agx), agx);
    // The F*C scaling misses wave/L2/memcpy effects: error nonzero
    // but not absurd.
    EXPECT_GT(pred.error_pct, 0.5);
    EXPECT_LT(pred.error_pct, 60.0);
}

TEST(Bsp, RebuiltEnginesShiftTheError)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    std::vector<double> errors;
    for (std::uint64_t id = 1; id <= 3; id++) {
        core::Engine e = build("inception-v4", id, nx);
        BspModel bsp(nx);
        bsp.calibrate(traceOnce(e, nx, 0.02));
        auto pred = bsp.predict(traceOnce(e, agx, 0.02), agx);
        errors.push_back(pred.error_pct);
    }
    double mn = std::min({errors[0], errors[1], errors[2]});
    double mx = std::max({errors[0], errors[1], errors[2]});
    // Paper Tables XVII/XVIII: a 2-13% swing across engines.
    EXPECT_GT(mx - mn, 0.05);
    EXPECT_LT(mx - mn, 30.0);
}

TEST(Bsp, UnknownKernelsFallBackToUnitLambda)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine a = build("resnet-18", 1, nx);
    core::Engine b = build("mobilenetv1", 1, nx);
    BspModel bsp(nx);
    bsp.calibrate(traceOnce(a, nx));
    auto pred = bsp.predict(traceOnce(b, nx), nx);
    EXPECT_GT(pred.kernels_without_lambda, 0);
}

TEST(Bsp, LambdasPerKernelNamePopulated)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::Engine e = build("tiny-yolov3", 1, nx);
    BspModel bsp(nx);
    bsp.calibrate(traceOnce(e, nx));
    EXPECT_FALSE(bsp.lambdas().empty());
    for (const auto &[name, entry] : bsp.lambdas()) {
        EXPECT_GT(entry.lambda, 0.0);
        EXPECT_GT(entry.samples, 0);
        EXPECT_FALSE(name.empty());
    }
}

} // namespace
} // namespace edgert::perfmodel

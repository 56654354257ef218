#include "serve/predictor.hh"

#include <algorithm>

#include "gpusim/sim.hh"
#include "gpusim/timing.hh"
#include "runtime/context.hh"

namespace edgert::serve {

LatencyPredictor::LatencyPredictor(const gpusim::DeviceSpec &device)
    : device_(device),
      params_(perfmodel::MicroArchParams::measure(device)),
      bsp_(device)
{
}

void
LatencyPredictor::calibrate(const core::Engine &engine)
{
    // Solo, jitter-free run: the calibration fixture of §VI-B. The
    // serving path keeps weights resident, so none are uploaded
    // here either — lambdas describe steady-state kernel time.
    gpusim::GpuSim sim(device_);
    runtime::ExecutionContext ctx(engine, sim, /*stream=*/0);
    ctx.enqueueInference();
    sim.run();
    bsp_.calibrate(sim.trace());
}

double
LatencyPredictor::predictServiceSeconds(const core::Engine &engine) const
{
    const auto &lambdas = bsp_.lambdas();

    double kernel_s = 0.0;
    int kernels = 0;
    for (const auto &step : engine.steps()) {
        for (const auto &k : step.kernels) {
            double raw_ms = perfmodel::bspRawMs(k, device_, params_);
            auto it = lambdas.find(k.name);
            double lambda =
                it == lambdas.end() ? 1.0 : it->second.lambda;
            kernel_s += raw_ms * 1e-3 / std::max(lambda, 1e-9);
            kernels++;
        }
    }

    // Uncalibrated kernels (lambda = 1) miss their launch latency —
    // calibrated lambdas absorb it, since the simulator's recorded
    // kernel durations include the serial launch phase.
    double launch_s = 0.0;
    if (kernels > 0 && lambdas.empty())
        launch_s = kernels * device_.kernel_launch_us * 1e-6;

    // Input/output copies, one cudaMemcpy each (pageable path, as
    // enqueueInference issues them).
    double copy_s = 0.0;
    for (const auto &in : engine.inputs())
        copy_s += gpusim::memcpySeconds(device_, in.bytes, 1);
    for (const auto &out : engine.outputs())
        copy_s += gpusim::memcpySeconds(device_, out.bytes, 1);

    return kernel_s + launch_s + copy_s;
}

} // namespace edgert::serve

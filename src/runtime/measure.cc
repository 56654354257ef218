#include "runtime/measure.hh"

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "common/stats.hh"
#include "gpusim/sim.hh"
#include "obs/metrics.hh"
#include "runtime/context.hh"

namespace edgert::runtime {

namespace {

LatencyStats
runLatencyProtocol(const core::Engine &engine,
                   const gpusim::DeviceSpec &device,
                   const LatencyOptions &opts,
                   std::vector<KernelProfile> *kernel_profiles)
{
    gpusim::GpuSim sim(device);
    if (opts.with_profiler)
        sim.setProfilingOverheadUs(opts.profiler_overhead_us);
    sim.setTimingJitter(
        opts.system_noise,
        hashCombine(hashCombine(engine.fingerprint(),
                                hashString(device.name)),
                    opts.noise_seed));

    ExecutionContext ctx(engine, sim, /*stream=*/0);

    struct RunMarks
    {
        gpusim::EventId begin;
        gpusim::EventId end;
    };
    std::vector<RunMarks> marks;
    for (int r = 0; r < opts.runs; r++) {
        RunMarks m;
        m.begin = sim.recordEvent(0);
        if (opts.upload_weights_per_run || r == 0)
            ctx.enqueueWeightUpload();
        auto h = ctx.enqueueInference();
        m.end = h.end;
        marks.push_back(m);
    }
    sim.run();

    LatencyStats out;
    RunningStat total, memcpy_ms, kernel_ms;
    std::map<std::string, std::vector<double>> per_kernel;

    for (const auto &m : marks) {
        double t0 = sim.eventSeconds(m.begin);
        double t1 = sim.eventSeconds(m.end);
        out.samples_ms.push_back((t1 - t0) * 1e3);
        total.add((t1 - t0) * 1e3);

        double mc = 0.0, kn = 0.0;
        for (const auto &rec : sim.trace()) {
            if (rec.start_s < t0 - 1e-12 || rec.end_s > t1 + 1e-9)
                continue;
            if (rec.kind == gpusim::OpKind::kKernel) {
                kn += rec.durationSeconds() * 1e3;
                if (kernel_profiles)
                    per_kernel[rec.name].push_back(
                        rec.durationSeconds() * 1e3);
            } else if (rec.kind == gpusim::OpKind::kMemcpyH2D ||
                       rec.kind == gpusim::OpKind::kMemcpyD2H) {
                mc += rec.durationSeconds() * 1e3;
            }
        }
        memcpy_ms.add(mc);
        kernel_ms.add(kn);
    }

    out.mean_ms = total.mean();
    out.std_ms = total.stddev();
    out.memcpy_mean_ms = memcpy_ms.mean();
    out.kernel_mean_ms = kernel_ms.mean();

    // One sample per measured run, in run order.
    obs::Histogram latency = obs::MetricRegistry::global().histogram(
        "runtime.inference.latency_ms", {{"device", device.name}});
    for (double ms : out.samples_ms)
        latency.record(ms);

    if (kernel_profiles) {
        for (auto &[name, samples] : per_kernel) {
            KernelProfile kp;
            kp.name = name;
            kp.calls = static_cast<int>(samples.size()) / opts.runs;
            double sum = 0.0;
            for (double s : samples)
                sum += s;
            kp.total_ms = sum / opts.runs; // per-run total
            kp.mean_ms = mean(samples);
            kp.std_ms = stddev(samples);
            kernel_profiles->push_back(std::move(kp));
        }
        std::sort(kernel_profiles->begin(), kernel_profiles->end(),
                  [](const KernelProfile &a, const KernelProfile &b) {
                      return a.total_ms > b.total_ms;
                  });
    }
    return out;
}

} // namespace

LatencyStats
measureLatency(const core::Engine &engine,
               const gpusim::DeviceSpec &device,
               const LatencyOptions &opts)
{
    return runLatencyProtocol(engine, device, opts, nullptr);
}

LatencyStats
profileLatency(const core::Engine &engine,
               const gpusim::DeviceSpec &device,
               std::vector<KernelProfile> &kernels,
               const LatencyOptions &opts)
{
    return runLatencyProtocol(engine, device, opts, &kernels);
}

ThroughputResult
measureThroughput(const core::Engine &engine,
                  const gpusim::DeviceSpec &device,
                  const ThroughputOptions &opts)
{
    gpusim::DeviceSpec dev =
        opts.at_max_clock ? device.atMaxClock() : device;
    gpusim::GpuSim sim(dev);
    // The probe reads events and stats(), never the kernel trace.
    sim.setTraceMode(gpusim::TraceMode::kOff);

    const int threads = std::max(1, opts.threads);
    std::vector<ExecutionContext> ctxs;
    ctxs.reserve(static_cast<std::size_t>(threads));
    std::vector<gpusim::EventId> warm_markers;
    std::vector<gpusim::EventId> last_frame;

    for (int t = 0; t < threads; t++) {
        int stream = t == 0 ? 0 : sim.createStream();
        ctxs.emplace_back(engine, sim, stream);
        // One-time engine upload per context (shared weights would
        // be one upload; we model the conservative per-context copy).
        ctxs.back().enqueueWeightUpload();
    }

    double gap_s = opts.host_gap_us * 1e-6;

    auto enqueue_frame = [&](int t) {
        auto &ctx = ctxs[static_cast<std::size_t>(t)];
        auto h = opts.pipelined ? ctx.enqueuePipelinedInference()
                                : ctx.enqueueInference();
        ctx.enqueueHostGap(gap_s);
        return h;
    };

    // Warmup frames.
    for (int t = 0; t < threads; t++) {
        for (int f = 0; f < opts.warmup_frames; f++)
            enqueue_frame(t);
        warm_markers.push_back(sim.recordEvent(
            ctxs[static_cast<std::size_t>(t)].stream()));
    }

    // Measured frames.
    for (int t = 0; t < threads; t++) {
        gpusim::EventId last = -1;
        for (int f = 0; f < opts.frames_per_thread; f++)
            last = enqueue_frame(t).end;
        last_frame.push_back(last);
    }

    // Run until every thread finished warmup, then open the stats
    // window (tegrastats sampling starts after the pipeline is hot).
    for (auto ev : warm_markers)
        sim.runUntilEvent(ev);
    double t_open = sim.nowSeconds();
    sim.resetStats();
    sim.run();

    double t_close = 0.0;
    for (auto ev : last_frame)
        t_close = std::max(t_close, sim.eventSeconds(ev));

    ThroughputResult res;
    res.window_s = t_close - t_open;
    std::int64_t frames = static_cast<std::int64_t>(threads) *
                          opts.frames_per_thread;
    res.aggregate_fps =
        res.window_s > 0.0
            ? static_cast<double>(frames) / res.window_s
            : 0.0;
    res.per_thread_fps = res.aggregate_fps / threads;
    auto st = sim.stats();
    // The stats window extends to full drain; normalize to the
    // measured span.
    double span = std::max(st.window_s, 1e-9);
    res.gpu_util_pct = 100.0 * st.sm_busy_integral /
                       (span * dev.sm_count);
    res.copy_busy_pct = 100.0 * st.copy_busy_s / span;

    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    const obs::Labels dev_label = {{"device", dev.name}};
    reg.counter("runtime.throughput.frames", dev_label).add(frames);
    reg.gauge("runtime.throughput.gpu_util_pct", dev_label)
        .set(res.gpu_util_pct);
    reg.gauge("runtime.throughput.copy_busy_pct", dev_label)
        .set(res.copy_busy_pct);
    reg.gauge("runtime.throughput.streams", dev_label)
        .set(static_cast<double>(threads));
    return res;
}

int
estimateMaxThreads(const core::Engine &engine,
                   const gpusim::DeviceSpec &device,
                   const ThroughputOptions &probe)
{
    gpusim::DeviceSpec dev = device.atMaxClock();

    // Per-frame DRAM traffic of the engine's kernels plus I/O.
    double bytes_per_frame = 0.0;
    for (const auto &step : engine.steps())
        for (const auto &k : step.kernels)
            bytes_per_frame += static_cast<double>(k.dram_bytes);
    for (const auto &in : engine.inputs())
        bytes_per_frame += static_cast<double>(in.bytes);
    for (const auto &out : engine.outputs())
        bytes_per_frame += static_cast<double>(out.bytes);

    // One thread's frame rate at max clock.
    ThroughputOptions topt = probe;
    topt.threads = 1;
    double fps1 = measureThroughput(engine, dev, topt).aggregate_fps;

    // Eq. 1: N = eta * (Fmem x Bwid) / Bth. eta captures achievable
    // bandwidth and the per-thread demand shrinking as threads
    // contend; the paper states the bound as O(.), so eta is a
    // single order-of-magnitude constant calibrated against the
    // Figure 3/4 saturation counts.
    constexpr double kEta = 9.0;
    double b_th = bytes_per_frame * fps1;
    if (b_th <= 0.0)
        return 1;
    double n = kEta * dev.dram_gbps * 1e9 / b_th;
    return std::max(1, static_cast<int>(n));
}

} // namespace edgert::runtime

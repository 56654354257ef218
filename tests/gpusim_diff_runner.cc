/**
 * @file
 * Runs a DiffProgram on one GpuSim build. Compiled once as is
 * (runProduct) and once with EDGERT_GPUSIM_REFERENCE next to the
 * reference build of sim.cc (runReference).
 */

#include <bit>
#include <deque>

#include "gpusim/sim.hh"
#include "gpusim_diff.hh"
#include "obs/metrics.hh"

namespace edgert::test {

namespace {

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

DiffRecord
recordOf(const gpusim::OpRecord &rec)
{
    const gpusim::KernelDesc &k = rec.kernel;
    DiffRecord out;
    out.kind = static_cast<int>(rec.kind);
    out.name = rec.name;
    out.stream = rec.stream;
    out.start = bits(rec.start_s);
    out.end = bits(rec.end_s);
    out.bytes = rec.bytes;
    out.kernel_name = k.name;
    const auto u = [](std::int64_t v) {
        return static_cast<std::uint64_t>(v);
    };
    out.kernel = {u(k.grid_blocks), u(k.block_threads),
                  u(k.max_blocks_per_sm), u(k.flops), u(k.dram_bytes),
                  k.tensor_core, bits(k.efficiency), bits(k.tile_kb),
                  k.strided_access, u(k.instructions), u(k.ldg),
                  u(k.stg), u(k.lds), u(k.sts), u(k.l1_hits),
                  u(k.l2_hits)};
    return out;
}

void
runPhase(gpusim::GpuSim &sim, const std::vector<int> &streams,
         const DiffPhase &phase, std::vector<gpusim::EventId> &events)
{
    // Storage of the phase's own, freed when it returns.
    const std::vector<gpusim::KernelDesc> descs = phase.descs;
    std::deque<gpusim::KernelList> lists;
    for (const DiffList &l : phase.lists) {
        std::vector<const gpusim::KernelDesc *> ptrs;
        for (int k : l.kernels)
            ptrs.push_back(&descs[static_cast<std::size_t>(k)]);
        lists.push_back(sim.resolveKernels(
            streams[static_cast<std::size_t>(l.stream)], ptrs));
    }
    for (const DiffOp &op : phase.ops) {
        const int s = streams[static_cast<std::size_t>(op.stream)];
        const auto event = [&] {
            return events[static_cast<std::size_t>(op.event)];
        };
        switch (op.kind) {
        case DiffOp::Kind::kLaunch:
            sim.launchKernels(lists[static_cast<std::size_t>(op.list)]);
            break;
        case DiffOp::Kind::kH2D:
            sim.memcpyH2D(s, op.bytes, op.transfers, "h2d", op.pinned);
            break;
        case DiffOp::Kind::kD2H:
            sim.memcpyD2H(s, op.bytes, op.transfers, "d2h", op.pinned);
            break;
        case DiffOp::Kind::kHostDelay:
            sim.hostDelay(s, op.seconds);
            break;
        case DiffOp::Kind::kDelayUntil:
            sim.delayUntil(s, sim.nowSeconds() + op.seconds);
            break;
        case DiffOp::Kind::kRecord:
            events.push_back(sim.recordEvent(s));
            break;
        case DiffOp::Kind::kWait:
            sim.waitEvent(s, event());
            break;
        case DiffOp::Kind::kPause:
            sim.runBefore(sim.nowSeconds() + op.seconds);
            break;
        case DiffOp::Kind::kRunUntil:
            sim.runUntilEvent(event());
            break;
        }
    }
    sim.run();
}

DiffOutcome
runOn(const DiffProgram &program)
{
    using gpusim::GpuSim;
    obs::MetricRegistry registry;
    const gpusim::DeviceSpec spec = program.agx
                                        ? gpusim::DeviceSpec::xavierAGX()
                                        : gpusim::DeviceSpec::xavierNX();
    GpuSim sim(spec, &registry);
    std::vector<int> streams;
    for (double w : program.weights)
        streams.push_back(sim.createStream(w));
    static constexpr gpusim::TraceMode kModes[] = {
        gpusim::TraceMode::kFull, gpusim::TraceMode::kSampled,
        gpusim::TraceMode::kOff};
    sim.setTraceMode(kModes[program.trace_mode], program.sample_every);
    if (program.jitter > 0.0)
        sim.setTimingJitter(program.jitter, program.jitter_seed);
    sim.setProfilingOverheadUs(program.profiling_us);

    DiffOutcome out;
    std::vector<gpusim::EventId> events;
    for (const DiffPhase &phase : program.phases) {
        runPhase(sim, streams, phase, events);
        const gpusim::UtilStats u = sim.stats();
        for (double v : {u.window_s, u.sm_busy_integral, u.gpu_busy_s,
                         u.copy_busy_s, u.dram_bytes})
            out.util.push_back(bits(v));
        if (phase.reset_stats_after)
            sim.resetStats();
    }
    for (gpusim::EventId e : events)
        out.events.push_back(bits(sim.eventSeconds(e)));
    for (const gpusim::OpRecord &rec : sim.trace())
        out.trace.push_back(recordOf(rec));
    const gpusim::SimStats st = sim.simStats();
    out.sim = {st.events, st.ops_enqueued, st.ops_completed,
               st.trace_records, st.solo_kernels, bits(st.simulated_s)};
    const obs::Labels dev = {{"device", spec.name}};
    const obs::Histogram stall =
        registry.histogram("gpusim.kernel.stall_us", dev);
    const obs::Histogram waste =
        registry.histogram("gpusim.kernel.wave_waste_pct", dev);
    out.histograms = {stall.count(), bits(stall.sum()), waste.count(),
                      bits(waste.sum())};
    out.fill_memo_hits = st.fill_memo_hits;
    out.fill_memo_clears = st.fill_memo_clears;
    return out;
}

} // namespace

#ifdef EDGERT_GPUSIM_REFERENCE
DiffOutcome
runReference(const DiffProgram &program)
#else
DiffOutcome
runProduct(const DiffProgram &program)
#endif
{
    return runOn(program);
}

} // namespace edgert::test

/**
 * @file
 * Differential test of GpuSim's contended-fill memo: seeded random
 * programs run through the product simulator and through a reference
 * build of the same source with the memo compiled out, and every
 * trace record, event time, utilization figure, self-measurement count
 * and kernel-histogram count and sum must match bit for bit.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/builder.hh"
#include "gpusim/device.hh"
#include "gpusim_diff.hh"
#include "nn/model_zoo.hh"

namespace edgert::test {
namespace {

using gpusim::KernelDesc;

/** Kernels of a few model-zoo engines, built once. */
const std::vector<KernelDesc> &
zooKernels()
{
    static const std::vector<KernelDesc> kernels = [] {
        std::vector<KernelDesc> out;
        core::BuilderConfig cfg;
        cfg.build_id = 1;
        for (const char *model :
             {"alexnet", "resnet-18", "mobilenetv1", "tiny-yolov3"}) {
            const core::Engine engine =
                core::Builder(gpusim::DeviceSpec::xavierNX(), cfg)
                    .build(nn::buildZooModel(model));
            for (const core::ExecutionStep &step : engine.steps())
                for (const KernelDesc &k : step.kernels)
                    out.push_back(k);
        }
        return out;
    }();
    return kernels;
}

KernelDesc
randomKernel(Rng &rng)
{
    const double pick = rng.uniform();
    if (pick < 0.5) {
        const std::vector<KernelDesc> &zoo = zooKernels();
        return zoo[rng.below(zoo.size())];
    }
    KernelDesc k;
    k.tensor_core = rng.chance(0.5);
    k.efficiency = rng.uniform(0.2, 0.9);
    k.tile_kb = rng.uniform(4.0, 96.0);
    k.strided_access = rng.chance(0.2);
    if (pick < 0.75) {
        // SM-capped: fewer blocks than the device has SMs.
        k.name = "sm_capped";
        k.grid_blocks = rng.range(1, 5);
        k.max_blocks_per_sm = rng.range(1, 2);
        k.flops = rng.range(100'000, 50'000'000);
        k.dram_bytes = rng.chance(0.5) ? rng.range(0, 200'000) : 0;
    } else {
        // DRAM-bound: little arithmetic per byte moved.
        k.name = "dram_bound";
        k.grid_blocks = rng.range(6, 256);
        k.max_blocks_per_sm = rng.range(1, 4);
        k.flops = rng.chance(0.2) ? 0 : rng.range(1'000, 2'000'000);
        k.dram_bytes = rng.range(100'000, 20'000'000);
    }
    return k;
}

/**
 * 2-6 streams at weights that are not powers of two, 1-3 phases of
 * model-zoo and synthetic kernels, copies, delays, events, waits,
 * pauses and runs to an event, under a random trace mode, jitter and
 * profiler overhead. Every phase of a program has as
 * many descriptors as the others, so a phase's descriptors may land in
 * the storage the previous phase's freed.
 */
DiffProgram
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    DiffProgram p;
    p.agx = rng.chance(0.5);
    static constexpr double kWeights[] = {0.6, 0.75, 1.3, 1.7, 2.5, 3.3};
    const int streams = static_cast<int>(rng.range(2, 6));
    for (int s = 0; s < streams; s++)
        p.weights.push_back(kWeights[rng.below(std::size(kWeights))]);
    p.trace_mode = static_cast<int>(rng.below(3));
    p.sample_every = static_cast<int>(rng.range(2, 7));
    if (rng.chance(0.3)) {
        p.jitter = rng.uniform(0.01, 0.1);
        p.jitter_seed = rng.next();
    }
    if (rng.chance(0.2))
        p.profiling_us = rng.uniform(1.0, 20.0);

    // A wide program interns enough kernels that its memo keys collide
    // in the table, which the ids of a narrow one almost never do.
    const bool wide = rng.chance(0.15);
    const auto descs = static_cast<int>(wide ? rng.range(40, 120)
                                             : rng.range(4, 20));
    const auto phases = rng.range(1, 3);
    int events = 0;
    for (int ph = 0; ph < phases; ph++) {
        DiffPhase phase;
        for (int d = 0; d < descs; d++)
            phase.descs.push_back(randomKernel(rng));
        const auto lists = wide ? rng.range(8, 24) : rng.range(2, 8);
        for (int l = 0; l < lists; l++) {
            DiffList list;
            list.stream = static_cast<int>(rng.below(p.weights.size()));
            const auto len = rng.range(1, 6);
            for (int k = 0; k < len; k++)
                list.kernels.push_back(static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(descs))));
            phase.lists.push_back(list);
        }
        const int phase_first_event = events;
        const auto ops = wide ? rng.range(100, 300) : rng.range(20, 80);
        for (int i = 0; i < ops; i++) {
            DiffOp op;
            op.stream = static_cast<int>(rng.below(p.weights.size()));
            const double kind = rng.uniform();
            if (kind < 0.55) {
                op.kind = DiffOp::Kind::kLaunch;
                op.list = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(lists)));
            } else if (kind < 0.68) {
                op.kind = rng.chance(0.6) ? DiffOp::Kind::kH2D
                                          : DiffOp::Kind::kD2H;
                op.bytes = static_cast<std::uint64_t>(
                    rng.range(1'000, 4'000'000));
                op.transfers = static_cast<int>(rng.range(1, 4));
                op.pinned = rng.chance(0.5);
            } else if (kind < 0.74) {
                op.kind = DiffOp::Kind::kDelayUntil;
                op.seconds = rng.uniform(0.0, 2e-3);
            } else if (kind < 0.79) {
                op.kind = DiffOp::Kind::kHostDelay;
                op.seconds = rng.uniform(0.0, 5e-4);
            } else if (kind < 0.87) {
                op.kind = DiffOp::Kind::kRecord;
                events++;
            } else if (kind < 0.92 && events > 0) {
                op.kind = DiffOp::Kind::kWait;
                op.event = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(events)));
            } else if (kind < 0.98) {
                op.kind = DiffOp::Kind::kPause;
                op.seconds = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 3e-3);
            } else if (events > phase_first_event) {
                op.kind = DiffOp::Kind::kRunUntil;
                op.event = static_cast<int>(rng.range(phase_first_event,
                                                      events - 1));
            } else {
                continue;
            }
            phase.ops.push_back(op);
        }
        phase.reset_stats_after = rng.chance(0.3);
        p.phases.push_back(std::move(phase));
    }
    return p;
}

/**
 * Two streams whose executing pair takes more than 4096 distinct
 * ordered values, so the memo fills and clears: one stream runs 72 long
 * kernels in turn, and the other walks the same 72 short kernels twice
 * under each of them (it waits for the previous long kernel's event),
 * so the second walk hits what the first stored.
 */
DiffProgram
clearingProgram()
{
    const int n = 72;
    DiffProgram p;
    p.weights = {1.3, 0.6};
    p.trace_mode = 2;
    DiffPhase phase;
    DiffList shorts{0, {}};
    for (int i = 0; i < n; i++) {
        KernelDesc k;
        k.name = "short";
        k.grid_blocks = 3;
        k.max_blocks_per_sm = 1;
        k.flops = 2'000'000 + 10'000 * i;
        k.dram_bytes = 50'000;
        phase.descs.push_back(k);
        shorts.kernels.push_back(i);
    }
    phase.lists.push_back(shorts);
    for (int j = 0; j < n; j++) {
        KernelDesc k;
        k.name = "long";
        k.grid_blocks = 96;
        k.max_blocks_per_sm = 2;
        k.flops = std::int64_t{20'000'000'000} + 10'000'000 * j;
        k.dram_bytes = 4'000'000;
        phase.descs.push_back(k);
        phase.lists.push_back(DiffList{1, {n + j}});
    }
    for (int j = 0; j < n; j++) {
        phase.ops.push_back({.kind = DiffOp::Kind::kLaunch, .stream = 1,
                             .list = 1 + j});
        phase.ops.push_back({.kind = DiffOp::Kind::kRecord, .stream = 1});
        if (j > 0)
            phase.ops.push_back({.kind = DiffOp::Kind::kWait,
                                 .stream = 0, .event = j - 1});
        for (int pass = 0; pass < 2; pass++)
            phase.ops.push_back({.kind = DiffOp::Kind::kLaunch,
                                 .stream = 0, .list = 0});
    }
    p.phases.push_back(std::move(phase));
    return p;
}

/** First difference between two outcomes, or "" when identical. */
std::string
firstDifference(const DiffOutcome &a, const DiffOutcome &b)
{
    std::ostringstream why;
    if (a.trace.size() != b.trace.size()) {
        why << "trace sizes " << a.trace.size() << " vs "
            << b.trace.size();
        return why.str();
    }
    for (std::size_t i = 0; i < a.trace.size(); i++)
        if (a.trace[i] != b.trace[i]) {
            why << "trace record " << i << " (" << a.trace[i].name << ")";
            return why.str();
        }
    if (a.events != b.events)
        return "event times";
    if (a.util != b.util)
        return "UtilStats";
    if (a.sim != b.sim)
        return "SimStats";
    if (a.histograms != b.histograms)
        return "kernel histograms";
    return "";
}

TEST(GpuSimDiff, RandomProgramsMatchTheReference)
{
    const std::uint64_t kPrograms = 500;
    std::uint64_t hits = 0;
    std::vector<std::uint64_t> failed;
    for (std::uint64_t seed = 1; seed <= kPrograms; seed++) {
        const DiffProgram program = randomProgram(seed);
        const DiffOutcome product = runProduct(program);
        const DiffOutcome reference = runReference(program);
        const std::string why = firstDifference(product, reference);
        if (!why.empty()) {
            if (failed.size() < 5)
                ADD_FAILURE() << "seed " << seed << ": " << why;
            failed.push_back(seed);
        }
        hits += product.fill_memo_hits;
        EXPECT_EQ(reference.fill_memo_hits, 0u);
    }
    if (!failed.empty())
        ADD_FAILURE() << failed.size() << " of " << kPrograms
                      << " programs differ, first seed " << failed.front();
    // The programs exercise the memo, not only the computed fill.
    EXPECT_GT(hits, 1000u);
}

TEST(GpuSimDiff, ClearedMemoMatchesTheReference)
{
    const DiffProgram program = clearingProgram();
    const DiffOutcome product = runProduct(program);
    const DiffOutcome reference = runReference(program);
    EXPECT_EQ(firstDifference(product, reference), "");
    EXPECT_GE(product.fill_memo_clears, 1u);
    EXPECT_GT(product.fill_memo_hits, 0u);
}

} // namespace
} // namespace edgert::test

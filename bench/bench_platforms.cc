/**
 * @file
 * Reproduces Table I: the two evaluation platforms' hardware
 * resources, as reported by a deviceQuery-style dump of the device
 * models.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "gpusim/device.hh"
#include "gpusim/kernel.hh"
#include "gpusim/timing.hh"
#include "report.hh"

namespace {

using namespace edgert;

void
printTable1()
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();

    auto fmt = [](double v, const char *suffix) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.4g%s", v, suffix);
        return std::string(buf);
    };

    TextTable t({"Attribute", "Xavier NX (GV10B)",
                 "Xavier AGX (GV10B)"});
    t.addRow({"# GPU cores",
              std::to_string(nx.sm_count * nx.cuda_cores_per_sm) +
                  " (64 per SM)",
              std::to_string(agx.sm_count * agx.cuda_cores_per_sm) +
                  " (64 per SM)"});
    t.addRow({"# SMs", std::to_string(nx.sm_count),
              std::to_string(agx.sm_count)});
    t.addRow({"# Tensor cores",
              std::to_string(nx.sm_count * nx.tensor_cores_per_sm) +
                  " (8 per SM)",
              std::to_string(agx.sm_count * agx.tensor_cores_per_sm) +
                  " (8 per SM)"});
    t.addRow({"L1 cache", fmt(nx.l1_kb_per_sm, "KB per SM"),
              fmt(agx.l1_kb_per_sm, "KB per SM")});
    t.addRow({"L2 cache", fmt(nx.l2_kb, "KB"), fmt(agx.l2_kb, "KB")});
    t.addRow({"Memory",
              fmt(nx.ram_gb, "GB ") + std::to_string(nx.bus_bits) +
                  "-bit LPDDR4x " + fmt(nx.dram_gbps, "GB/s"),
              fmt(agx.ram_gb, "GB ") + std::to_string(agx.bus_bits) +
                  "-bit LPDDR4x " + fmt(agx.dram_gbps, "GB/s")});
    t.addRow({"GPU clock (max)", fmt(nx.max_clock_ghz, " GHz"),
              fmt(agx.max_clock_ghz, " GHz")});
    t.addRow({"GPU clock (pinned, latency exps)",
              fmt(nx.gpu_clock_ghz * 1e3, " MHz"),
              fmt(agx.gpu_clock_ghz * 1e3, " MHz")});
    t.addRow({"Peak FP16 tensor (pinned clock)",
              fmt(nx.peakFp16Flops() / 1e12, " TFLOP/s"),
              fmt(agx.peakFp16Flops() / 1e12, " TFLOP/s")});
    t.addRow({"Technology", "12nm", "12nm"});

    std::printf("\n=== Table I: evaluation platforms ===\n");
    t.render(std::cout);

    auto writePlatform = [](JsonWriter &w,
                            const gpusim::DeviceSpec &d) {
        w.beginObject();
        w.field("name", d.name);
        w.field("gpu_cores", d.sm_count * d.cuda_cores_per_sm);
        w.field("sm_count", d.sm_count);
        w.field("tensor_cores", d.sm_count * d.tensor_cores_per_sm);
        w.field("l1_kb_per_sm", d.l1_kb_per_sm);
        w.field("l2_kb", d.l2_kb);
        w.field("ram_gb", d.ram_gb);
        w.field("bus_bits", d.bus_bits);
        w.field("dram_gbps", d.dram_gbps);
        w.field("max_clock_ghz", d.max_clock_ghz);
        w.field("pinned_clock_ghz", d.gpu_clock_ghz);
        w.field("peak_fp16_tflops", d.peakFp16Flops() / 1e12);
        w.endObject();
    };
    bench::saveBenchReport(
        "BENCH_platforms.json", "bench_platforms",
        [&](JsonWriter &w) {
            w.key("platforms").beginArray();
            writePlatform(w, nx);
            writePlatform(w, agx);
            w.endArray();
        });
}

void
BM_SoloKernelTiming(benchmark::State &state)
{
    gpusim::DeviceSpec dev = state.range(0) == 0
                                 ? gpusim::DeviceSpec::xavierNX()
                                 : gpusim::DeviceSpec::xavierAGX();
    gpusim::KernelDesc k;
    k.name = "probe";
    k.grid_blocks = 96;
    k.flops = 500'000'000;
    k.dram_bytes = 4'000'000;
    k.tensor_core = true;
    k.efficiency = 0.6;
    state.SetLabel(dev.name);
    state.counters["sim_kernel_us"] =
        gpusim::soloKernelSeconds(dev, k) * 1e6;
    for (auto _ : state) {
        double t = gpusim::soloKernelSeconds(dev, k);
        benchmark::DoNotOptimize(t);
    }
}

} // namespace

BENCHMARK(BM_SoloKernelTiming)->Arg(0)->Arg(1);

int
main(int argc, char **argv)
{
    printTable1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

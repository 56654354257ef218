/**
 * @file
 * Reproduces Table VII: frames-per-second of the classification
 * networks for TensorRT-style engines vs un-optimized (framework
 * FP32) execution, on both platforms at maximum clocks.
 *
 * Expected shape: a 20-60x speedup from the optimized engines
 * (paper: ~23-27x average across models; e.g. ResNet-18 4.6 -> 227
 * on NX).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "common/table.hh"
#include "core/builder.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "report.hh"
#include "runtime/measure.hh"

namespace {

using namespace edgert;

struct FpsRow
{
    std::string model;
    std::string paper_ref;
    double nx_raw, nx_trt, agx_raw, agx_trt;
};

void
printTable7()
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    std::vector<FpsRow> results;

    TextTable table({"NN Model", "NX-Unopt", "NX-TensorRT",
                     "AGX-Unopt", "AGX-TensorRT", "NX gain",
                     "Paper (NX-u/NX-t/AGX-u/AGX-t)"});

    struct PaperRow { const char *m; const char *ref; };
    const PaperRow rows[] = {
        {"alexnet", "12.1 / 190.4 / 14.2 / 192.5"},
        {"resnet-18", "4.6 / 227.0 / 5.6 / 232.4"},
        {"vgg-16", "0.66 / 49.1 / 0.8 / 43.6"},
    };

    for (const auto &row : rows) {
        nn::Network net = nn::buildZooModel(row.m);
        core::BuilderConfig cfg;
        cfg.build_id = 1;
        core::Engine e_nx = core::Builder(nx, cfg).build(net);
        core::Engine e_agx = core::Builder(agx, cfg).build(net);
        core::Engine raw_nx =
            core::Builder(nx, cfg).buildUnoptimized(net);
        core::Engine raw_agx =
            core::Builder(agx, cfg).buildUnoptimized(net);

        runtime::ThroughputOptions topt;
        topt.threads = 1;
        topt.frames_per_thread = 20;

        double nx_trt =
            runtime::measureThroughput(e_nx, nx, topt).aggregate_fps;
        double agx_trt =
            runtime::measureThroughput(e_agx, agx, topt)
                .aggregate_fps;
        runtime::ThroughputOptions ropt = topt;
        ropt.frames_per_thread = 5; // FP32 frames are slow
        double nx_raw =
            runtime::measureThroughput(raw_nx, nx, ropt)
                .aggregate_fps;
        double agx_raw =
            runtime::measureThroughput(raw_agx, agx, ropt)
                .aggregate_fps;

        char gain[16];
        std::snprintf(gain, sizeof(gain), "%.1fx",
                      nx_trt / std::max(1e-9, nx_raw));
        table.addRow({row.m, formatDouble(nx_raw, 2),
                      formatDouble(nx_trt, 1),
                      formatDouble(agx_raw, 2),
                      formatDouble(agx_trt, 1), gain, row.ref});
        results.push_back({row.m, row.ref, nx_raw, nx_trt, agx_raw,
                           agx_trt});
    }
    std::printf("\n=== Table VII: FPS, TensorRT-style engines vs "
                "un-optimized models (max clocks) ===\n");
    table.render(std::cout);

    bench::saveBenchReport(
        "BENCH_throughput.json", "bench_throughput",
        [&](JsonWriter &w) {
            w.key("models").beginArray();
            for (const FpsRow &r : results) {
                w.beginObject();
                w.field("model", r.model);
                w.field("nx_unopt_fps", r.nx_raw);
                w.field("nx_tensorrt_fps", r.nx_trt);
                w.field("agx_unopt_fps", r.agx_raw);
                w.field("agx_tensorrt_fps", r.agx_trt);
                w.field("nx_gain",
                        r.nx_trt / std::max(1e-9, r.nx_raw));
                w.field("paper_reference", r.paper_ref);
                w.endObject();
            }
            w.endArray();
        });
}

void
BM_Throughput(benchmark::State &state)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel("resnet-18");
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    core::Engine e = core::Builder(nx, cfg).build(net);
    runtime::ThroughputOptions topt;
    topt.threads = static_cast<int>(state.range(0));
    topt.frames_per_thread = 10;
    state.counters["sim_fps"] =
        runtime::measureThroughput(e, nx, topt).aggregate_fps;
    for (auto _ : state) {
        double fps =
            runtime::measureThroughput(e, nx, topt).aggregate_fps;
        benchmark::DoNotOptimize(fps);
    }
}

} // namespace

BENCHMARK(BM_Throughput)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    printTable7();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

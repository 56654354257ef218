/**
 * @file
 * Reproduces Table XII: run time of three independently built
 * TensorRT-style engines per model, all built *and* run on AGX.
 *
 * Expected shape: several models show run-time differences across
 * their three engines (paper highlights ResNet-18, vgg-16,
 * inception-v4, Mobilenetv1, fcn-resnet18) because each build's
 * noisy autotuning selects a different kernel mix; others land on
 * the same tactics and match.
 *
 * A second table shows the mitigation: rebuilding through a shared
 * TimingCache freezes the tactic choices, so the three engines
 * become bit-identical and the remaining spread is pure run-to-run
 * measurement noise.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <set>

#include "report.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/builder.hh"
#include "core/timing_cache.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "runtime/measure.hh"

namespace {

using namespace edgert;

/** One model's three-rebuild latency outcome (Table XII row). */
struct VarianceRow
{
    std::string model;
    double mean_ms[3];
    double std_ms[3];
    double spread_pct = 0.0;
};

/** One model's timing-cache mitigation outcome. */
struct MitigationRow
{
    std::string model;
    std::size_t distinct_uncached = 0;
    std::size_t distinct_cached = 0;
    double cached_spread_pct = 0.0;
};

std::vector<VarianceRow>
printTable12()
{
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();

    TextTable table({"NN Model", "Engine1", "Engine2", "Engine3",
                     "max spread (%)"});
    std::vector<VarianceRow> rows;

    for (const auto &model : nn::zooModelNames()) {
        nn::Network net = nn::buildZooModel(model);
        VarianceRow vr;
        vr.model = model;
        std::vector<std::string> row{model};
        for (int i = 0; i < 3; i++) {
            core::BuilderConfig cfg;
            cfg.build_id = 300 + static_cast<std::uint64_t>(i);
            core::Engine e = core::Builder(agx, cfg).build(net);
            runtime::LatencyOptions opts;
            opts.noise_seed = static_cast<std::uint64_t>(i);
            auto lat = runtime::measureLatency(e, agx, opts);
            vr.mean_ms[i] = lat.mean_ms;
            vr.std_ms[i] = lat.std_ms;
            row.push_back(meanStdCell(lat.mean_ms, lat.std_ms));
        }
        double mn =
            std::min({vr.mean_ms[0], vr.mean_ms[1], vr.mean_ms[2]});
        double mx =
            std::max({vr.mean_ms[0], vr.mean_ms[1], vr.mean_ms[2]});
        vr.spread_pct = 100.0 * (mx - mn) / mn;
        row.push_back(formatDouble(vr.spread_pct, 1));
        table.addRow(std::move(row));
        rows.push_back(std::move(vr));
    }
    std::printf("\n=== Table XII: run time (ms) of three engines of "
                "the same model, built and run on AGX (paper: "
                "spreads up to ~50%% for ResNet-18, ~17%% for "
                "inception-v4/vgg-16/mobilenet) ===\n");
    table.render(std::cout);
    return rows;
}

std::vector<MitigationRow>
printTable12Mitigated()
{
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();

    TextTable table({"NN Model", "distinct engines (uncached)",
                     "distinct engines (cached)",
                     "cached spread (%)"});
    std::vector<MitigationRow> rows;
    int frozen = 0, total = 0;
    for (const auto &model : nn::zooModelNames()) {
        nn::Network net = nn::buildZooModel(model);
        core::TimingCache cache;
        std::set<std::uint64_t> plain_fps, cached_fps;
        double means[3];
        for (int i = 0; i < 3; i++) {
            core::BuilderConfig cfg;
            cfg.build_id = 300 + static_cast<std::uint64_t>(i);
            plain_fps.insert(
                core::Builder(agx, cfg).build(net).fingerprint());
            cfg.timing_cache = &cache;
            core::Engine e = core::Builder(agx, cfg).build(net);
            cached_fps.insert(e.fingerprint());
            runtime::LatencyOptions opts;
            opts.noise_seed = static_cast<std::uint64_t>(i);
            means[i] = runtime::measureLatency(e, agx, opts).mean_ms;
        }
        double mn = std::min({means[0], means[1], means[2]});
        double mx = std::max({means[0], means[1], means[2]});
        MitigationRow mr;
        mr.model = model;
        mr.distinct_uncached = plain_fps.size();
        mr.distinct_cached = cached_fps.size();
        mr.cached_spread_pct = 100.0 * (mx - mn) / mn;
        table.addRow({model, std::to_string(plain_fps.size()),
                      std::to_string(cached_fps.size()),
                      formatDouble(mr.cached_spread_pct, 1)});
        rows.push_back(std::move(mr));
        total++;
        if (cached_fps.size() == 1)
            frozen++;
    }
    std::printf("\n=== Finding 6 mitigation: the same three builds "
                "through one shared TimingCache (first build warms "
                "it, the rest hit) ===\n");
    table.render(std::cout);
    std::printf("tactics frozen for %d/%d models — any remaining "
                "cached spread is run-to-run measurement noise, not "
                "engine variance\n",
                frozen, total);
    return rows;
}

void
writeJsonReport(const std::vector<VarianceRow> &variance,
                const std::vector<MitigationRow> &mitigation)
{
    bench::saveBenchReport(
        "BENCH_engine_variance.json", "bench_engine_variance",
        [&](JsonWriter &w) {
            w.field("device", "xavier-agx");
            w.field("builds_per_model", 3);
            w.key("variance").beginArray();
            for (const VarianceRow &r : variance) {
                w.beginObject();
                w.field("model", r.model);
                w.key("mean_ms").beginArray();
                for (double v : r.mean_ms)
                    w.value(v);
                w.endArray();
                w.key("std_ms").beginArray();
                for (double v : r.std_ms)
                    w.value(v);
                w.endArray();
                w.field("spread_pct", r.spread_pct);
                w.endObject();
            }
            w.endArray();
            w.key("timing_cache_mitigation").beginArray();
            for (const MitigationRow &r : mitigation) {
                w.beginObject();
                w.field("model", r.model);
                w.field("distinct_engines_uncached",
                        r.distinct_uncached);
                w.field("distinct_engines_cached",
                        r.distinct_cached);
                w.field("cached_spread_pct", r.cached_spread_pct);
                w.endObject();
            }
            w.endArray();
        },
        /*with_metrics=*/false);
}

void
BM_RebuildVariance(benchmark::State &state)
{
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    nn::Network net = nn::buildZooModel("inception-v4");
    std::uint64_t id = 0;
    for (auto _ : state) {
        core::BuilderConfig cfg;
        cfg.build_id = id++;
        core::Engine e = core::Builder(agx, cfg).build(net);
        benchmark::DoNotOptimize(e.fingerprint());
    }
}

void
BM_RebuildVarianceCached(benchmark::State &state)
{
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    nn::Network net = nn::buildZooModel("inception-v4");
    core::TimingCache cache;
    std::uint64_t id = 0;
    for (auto _ : state) {
        core::BuilderConfig cfg;
        cfg.build_id = id++;
        cfg.timing_cache = &cache;
        core::Engine e = core::Builder(agx, cfg).build(net);
        benchmark::DoNotOptimize(e.fingerprint());
    }
}

} // namespace

BENCHMARK(BM_RebuildVariance)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RebuildVarianceCached)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    auto variance = printTable12();
    auto mitigation = printTable12Mitigated();
    writeJsonReport(variance, mitigation);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

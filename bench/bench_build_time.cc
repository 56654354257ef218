/**
 * @file
 * Engine build-time characterization — the offline cost the paper's
 * model-zoo sweeps pay on every run, and the dimension the parallel
 * cache-backed autotuner attacks.
 *
 * What dominates a real TensorRT build is not graph surgery but the
 * timing sweep: every candidate tactic occupies the device for its
 * own duration × avgTimingIterations, which is why cold builds take
 * minutes on a Jetson while the host-side work takes milliseconds.
 * The simulator evaluates measurements analytically, so this bench
 * reports build time the same way the rest of the repo reports
 * inference latency: *modeled* device time (from the builder's
 * TimingWorkload — serial sum or makespan across jobs workers) plus
 * the measured host wall time of the build call.
 *
 * Three full-zoo build passes on the NX preset:
 *   1. cold serial      — jobs=1, no timing cache: the classic
 *                         builder, re-timing every (node, tactic);
 *   2. parallel+cache   — one worker per Carmel CPU core of the
 *                         modeled platform (the builder runs on the
 *                         Jetson itself), one shared TimingCache
 *                         warmed as the sweep proceeds:
 *                         repeated blocks inside a model and shared
 *                         shapes across the zoo are timed once, and
 *                         the remaining sweeps overlap across jobs;
 *   3. warm rebuild     — the same cache again: every tuple hits,
 *                         measureTactic never runs and the device
 *                         is never occupied.
 *
 * Besides the human-readable table the bench writes
 * BENCH_build.json, so the build-time trajectory of this repo is
 * machine-readable across commits.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "core/builder.hh"
#include "core/timing_cache.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "report.hh"

namespace {

using namespace edgert;
using Clock = std::chrono::steady_clock;

// NVIDIA's recommended averaging on jittery edge clocks; the
// speedup ratios are iteration-independent (device time scales all
// sweeps alike) but the absolute build times are realistic here.
constexpr int kTimingIterations = 8;
constexpr std::uint64_t kBuildId = 1;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

struct ModelTimes
{
    std::string model;
    // Host wall time of the build() call itself.
    double cold_host_ms = 0.0;
    double par_host_ms = 0.0;
    double warm_host_ms = 0.0;
    // Modeled device occupancy of the timing sweep.
    double cold_dev_ms = 0.0;
    double par_dev_ms = 0.0;
    double warm_dev_ms = 0.0;
    core::TimingWorkload par_workload; //!< for jobs scaling

    double coldMs() const { return cold_host_ms + cold_dev_ms; }
    double parMs() const { return par_host_ms + par_dev_ms; }
    double warmMs() const { return warm_host_ms + warm_dev_ms; }
};

double
buildOnce(const nn::Network &net, const gpusim::DeviceSpec &dev,
          int jobs, core::TimingCache *cache,
          core::BuildReport &report)
{
    core::BuilderConfig cfg;
    cfg.build_id = kBuildId;
    cfg.avg_timing_iterations = kTimingIterations;
    cfg.jobs = jobs;
    cfg.timing_cache = cache;
    auto t0 = Clock::now();
    core::Engine e = core::Builder(dev, cfg).build(net, &report);
    benchmark::DoNotOptimize(e.fingerprint());
    return millisSince(t0);
}

void
runBuildTimeStudy()
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    // The engine is built *on* the Jetson, so the sweep parallelism
    // available to the modeled build is the NX's own CPU.
    int hw_jobs = nx.cpu_cores;

    // The snapshot embedded below should cover this study only.
    obs::MetricRegistry::global().reset();

    std::vector<nn::Network> nets;
    for (const auto &m : nn::zooModelNames())
        nets.push_back(nn::buildZooModel(m));

    std::vector<ModelTimes> rows(nets.size());
    core::TimingCache cache;

    // Pass 1: cold serial, no cache (the pre-cache builder).
    for (std::size_t i = 0; i < nets.size(); i++) {
        rows[i].model = nets[i].name();
        core::BuildReport rep;
        rows[i].cold_host_ms =
            buildOnce(nets[i], nx, /*jobs=*/1, nullptr, rep);
        rows[i].cold_dev_ms = rep.workload.serialSeconds() * 1e3;
    }
    // Pass 2: parallel, shared cache warming up across the zoo.
    for (std::size_t i = 0; i < nets.size(); i++) {
        core::BuildReport rep;
        rows[i].par_host_ms =
            buildOnce(nets[i], nx, hw_jobs, &cache, rep);
        rows[i].par_dev_ms =
            rep.workload.makespanSeconds(hw_jobs) * 1e3;
        rows[i].par_workload = std::move(rep.workload);
    }
    auto cold_stats = cache.stats();
    cache.resetStats();
    // Pass 3: warm rebuild through the now-full cache.
    for (std::size_t i = 0; i < nets.size(); i++) {
        core::BuildReport rep;
        rows[i].warm_host_ms =
            buildOnce(nets[i], nx, hw_jobs, &cache, rep);
        rows[i].warm_dev_ms = rep.workload.serialSeconds() * 1e3;
    }
    auto warm_stats = cache.stats();

    double cold_total = 0, par_total = 0, warm_total = 0;
    double cold_host = 0, par_host = 0, warm_host = 0;
    TextTable table({"NN Model", "cold serial (ms)",
                     "parallel+cache (ms)", "warm cache (ms)",
                     "warm speedup"});
    for (const auto &r : rows) {
        cold_total += r.coldMs();
        par_total += r.parMs();
        warm_total += r.warmMs();
        cold_host += r.cold_host_ms;
        par_host += r.par_host_ms;
        warm_host += r.warm_host_ms;
        table.addRow({r.model, formatDouble(r.coldMs(), 2),
                      formatDouble(r.parMs(), 2),
                      formatDouble(r.warmMs(), 2),
                      formatDouble(r.coldMs() /
                                       std::max(1e-6, r.warmMs()),
                                   1)});
    }
    table.addRow({"TOTAL", formatDouble(cold_total, 2),
                  formatDouble(par_total, 2),
                  formatDouble(warm_total, 2),
                  formatDouble(cold_total / std::max(1e-6,
                                                     warm_total),
                               1)});

    double par_speedup = cold_total / std::max(1e-6, par_total);
    double warm_speedup = cold_total / std::max(1e-6, warm_total);
    std::printf("\n=== Engine build time across the %zu-model zoo "
                "(NX preset, %d timing iterations, jobs=%d — one "
                "per NX Carmel core; host threads: %d) ===\n",
                rows.size(), kTimingIterations, hw_jobs,
                ThreadPool::defaultThreads());
    std::printf("build time = host wall time + modeled device "
                "occupancy of the timing sweep\n");
    table.render(std::cout);
    std::printf("parallel+cache vs cold serial: %.2fx   "
                "warm cache vs cold serial: %.1fx\n",
                par_speedup, warm_speedup);
    std::printf("host wall time only (ms): cold %.2f, "
                "parallel+cache %.2f, warm %.2f\n",
                cold_host, par_host, warm_host);
    std::printf("cache after cold sweep: %zu entries (%llu "
                "measured, %llu deduped); warm sweep: %llu hits, "
                "%llu misses\n",
                cache.size(),
                static_cast<unsigned long long>(cold_stats.inserts),
                static_cast<unsigned long long>(cold_stats.hits),
                static_cast<unsigned long long>(warm_stats.hits),
                static_cast<unsigned long long>(warm_stats.misses));

    // Sweep-parallelism scaling: the makespan is a deterministic
    // function of the recorded per-task device times, so the cold
    // cache-backed build can be replayed for any worker count.
    const int kScalingJobs[] = {1, 2, 4, 6, 8, 16};
    std::printf("modeled parallel+cache speedup vs cold serial by "
                "jobs:");
    std::vector<double> scaling;
    for (int j : kScalingJobs) {
        double total = par_host;
        for (const auto &r : rows)
            total += r.par_workload.makespanSeconds(j) * 1e3;
        scaling.push_back(cold_total / std::max(1e-6, total));
        std::printf("  %d:%.2fx", j, scaling.back());
    }
    std::printf("\n");

    // Builder metrics from the observability registry: all three
    // passes instrumented themselves while building.
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    const obs::Labels dev_label = {{"device", nx.name}};
    double measured = static_cast<double>(
        reg.counter("builder.tactic.measured", dev_label).value());
    double served = static_cast<double>(
        reg.counter("builder.tactic.cache_served", dev_label)
            .value());
    double hit_rate_pct =
        measured + served > 0.0
            ? 100.0 * served / (measured + served)
            : 0.0;
    double par_dev_total = 0.0, par_serial_total = 0.0;
    for (const auto &r : rows) {
        par_serial_total += r.par_workload.serialSeconds();
        par_dev_total += r.par_workload.makespanSeconds(hw_jobs);
    }
    double sweep_parallelism =
        par_dev_total > 0.0 ? par_serial_total / par_dev_total
                            : 1.0;

    bench::saveBenchReport(
        "BENCH_build.json", "bench_build_time",
        [&](JsonWriter &w) {
            w.field("device", nx.name);
            w.field("models", rows.size());
            w.field("jobs", hw_jobs);
            w.field("avg_timing_iterations", kTimingIterations);
            w.key("per_model").beginArray();
            for (const auto &r : rows) {
                w.beginObject();
                w.field("model", r.model);
                w.field("cold_serial_ms", r.coldMs());
                w.field("parallel_cached_ms", r.parMs());
                w.field("warm_ms", r.warmMs());
                w.field("cold_host_ms", r.cold_host_ms);
                w.field("warm_host_ms", r.warm_host_ms);
                w.endObject();
            }
            w.endArray();
            w.key("totals").beginObject();
            w.field("cold_serial_ms", cold_total);
            w.field("parallel_cached_ms", par_total);
            w.field("warm_ms", warm_total);
            w.field("cold_host_ms", cold_host);
            w.field("parallel_cached_host_ms", par_host);
            w.field("warm_host_ms", warm_host);
            w.endObject();
            w.key("speedups").beginObject();
            w.field("parallel_cached_vs_cold", par_speedup);
            w.field("warm_vs_cold", warm_speedup);
            w.endObject();
            w.key("scaling_by_jobs").beginObject();
            for (std::size_t i = 0; i < scaling.size(); i++)
                w.field(std::to_string(kScalingJobs[i]),
                        scaling[i]);
            w.endObject();
            w.key("cache").beginObject();
            w.field("entries", cache.size());
            w.field("cold_inserts", cold_stats.inserts);
            w.field("cold_hits", cold_stats.hits);
            w.field("warm_hits", warm_stats.hits);
            w.field("warm_misses", warm_stats.misses);
            w.endObject();
            w.key("builder_metrics").beginObject();
            w.field("cache_hit_rate_pct", hit_rate_pct);
            w.field("sweep_parallelism", sweep_parallelism);
            w.field("tactics_measured", measured);
            w.field("tactics_cache_served", served);
            w.endObject();
        });
}

void
BM_BuildColdSerial(benchmark::State &state)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel("inception-v4");
    for (auto _ : state) {
        core::BuildReport rep;
        benchmark::DoNotOptimize(
            buildOnce(net, nx, /*jobs=*/1, nullptr, rep));
    }
}

void
BM_BuildWarmCache(benchmark::State &state)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel("inception-v4");
    core::TimingCache cache;
    core::BuildReport warmup;
    buildOnce(net, nx, 1, &cache, warmup);
    for (auto _ : state) {
        core::BuildReport rep;
        benchmark::DoNotOptimize(buildOnce(net, nx, 1, &cache, rep));
    }
}

} // namespace

BENCHMARK(BM_BuildColdSerial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildWarmCache)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    runBuildTimeStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

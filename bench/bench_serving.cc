/**
 * @file
 * Serving-policy benchmark for EdgeServe: sweeps offered load per
 * scheduling policy (FIFO batch-1 vs dynamic batching, single- vs
 * multi-device) and reports the maximum QPS each policy sustains
 * while keeping p99 latency within the SLO and shedding under 1%.
 *
 * The workload model is AlexNet, the zoo network with the steepest
 * batching payoff (its FC-heavy tail is launch/memory-bound at
 * batch 1, so per-request service drops ~4x by batch 8 — the same
 * shape the paper reports for AlexNet throughput vs batch size).
 * Two extra sections demonstrate the control-plane properties the
 * sweep numbers rest on:
 *
 *  - admission ablation: at an offered load far past the knee, the
 *    SLO-aware admission control keeps p99 near the deadline while
 *    the unprotected queue diverges to seconds;
 *  - determinism: the same seeded scenario run twice yields a
 *    byte-identical serve report.
 *
 * `--smoke` (stripped before benchmark::Initialize) shrinks the
 * sweep to a CI-sized spot check that still exercises every policy
 * knob and writes the same BENCH_serving.json shape.
 *
 * `--watch-out=PREFIX` additionally runs the ablation's overload
 * scenario with EdgeWatch enabled, writing the watch report to
 * PREFIXwatch.json and flight-recorder incident dumps under
 * PREFIX. Everything rides sim time, so a same-seed double run
 * must produce byte-identical files — CI diffs them.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "common/table.hh"
#include "gpusim/device.hh"
#include "obs/metrics.hh"
#include "report.hh"
#include "serve/server.hh"

namespace {

using namespace edgert;

constexpr const char *kModel = "alexnet";
constexpr double kSloMs = 25.0;

bool g_smoke = false;
std::string g_watch_out; //!< --watch-out=PREFIX artifact prefix

/** One measured point of a load sweep. */
struct Point
{
    double target_qps = 0.0;
    double offered_qps = 0.0;
    double goodput_qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double mean_batch = 0.0;
    std::int64_t offered = 0;
    std::int64_t shed = 0;
    std::int64_t violations = 0;

    double shedPct() const
    {
        return offered > 0 ? 100.0 * static_cast<double>(shed) /
                                 static_cast<double>(offered)
                           : 0.0;
    }

    /** The SLO is met when the tail fits and almost nothing sheds. */
    bool meetsSlo() const
    {
        return p99_ms <= kSloMs && shedPct() <= 1.0;
    }
};

/** One policy column of the sweep. */
struct Policy
{
    std::string name;
    std::vector<std::string> devices;
    bool dynamic_batching = false;
    std::vector<double> grid; //!< target QPS levels, ascending
    std::vector<Point> points;
    double max_qps_at_slo = 0.0;
};

serve::ServeConfig
baseConfig(const std::vector<std::string> &devices, bool batching)
{
    serve::ServeConfig cfg;
    for (const auto &d : devices)
        cfg.devices.push_back(serve::parseDevice(d));
    cfg.dynamic_batching = batching;
    cfg.duration_s = g_smoke ? 1.0 : 2.0;
    cfg.seed = 1;
    return cfg;
}

Point
runPoint(const std::vector<std::string> &devices, bool batching,
         double qps)
{
    serve::ServeConfig cfg = baseConfig(devices, batching);
    serve::ModelConfig mc;
    mc.model = kModel;
    mc.slo_ms = kSloMs;
    mc.arrivals.qps = qps;
    cfg.models.push_back(mc);

    serve::ServeReport rep = serve::runServer(cfg);
    const serve::ModelStats &s = rep.models.front();
    Point p;
    p.target_qps = qps;
    p.offered_qps = s.offered_qps;
    p.goodput_qps = s.goodput_qps;
    p.p50_ms = s.p50_ms;
    p.p99_ms = s.p99_ms;
    p.mean_batch = s.mean_batch;
    p.offered = s.offered;
    p.shed = s.shed;
    p.violations = s.slo_violations;
    return p;
}

void
sweepPolicy(Policy &pol)
{
    std::printf("\n--- policy %s (devices:", pol.name.c_str());
    for (const auto &d : pol.devices)
        std::printf(" %s", d.c_str());
    std::printf(", batching %s, SLO %.0f ms) ---\n",
                pol.dynamic_batching ? "on" : "off", kSloMs);
    TextTable table({"Target QPS", "Offered", "Goodput", "p50 (ms)",
                     "p99 (ms)", "Shed (%)", "Mean batch", "SLO"});
    for (double qps : pol.grid) {
        Point p = runPoint(pol.devices, pol.dynamic_batching, qps);
        table.addRow({formatDouble(p.target_qps, 0),
                      formatDouble(p.offered_qps, 1),
                      formatDouble(p.goodput_qps, 1),
                      formatDouble(p.p50_ms, 2),
                      formatDouble(p.p99_ms, 2),
                      formatDouble(p.shedPct(), 1),
                      formatDouble(p.mean_batch, 2),
                      p.meetsSlo() ? "met" : "missed"});
        if (p.meetsSlo())
            pol.max_qps_at_slo =
                std::max(pol.max_qps_at_slo, p.offered_qps);
        pol.points.push_back(p);
    }
    table.render(std::cout);
    std::printf("max QPS at p99 <= %.0f ms: %.1f\n", kSloMs,
                pol.max_qps_at_slo);
}

std::vector<Policy>
makePolicies()
{
    std::vector<Policy> pols;
    if (g_smoke) {
        pols.push_back({"fifo-nx", {"nx"}, false, {150, 400}, {}, 0});
        pols.push_back(
            {"batch-nx", {"nx"}, true, {150, 400}, {}, 0});
        return pols;
    }
    pols.push_back({"fifo-nx",
                    {"nx"},
                    false,
                    {60, 120, 180, 240, 300, 360},
                    {},
                    0});
    pols.push_back({"batch-nx",
                    {"nx"},
                    true,
                    {100, 200, 300, 400, 500, 600},
                    {},
                    0});
    pols.push_back({"fifo-nx-agx",
                    {"nx", "agx"},
                    false,
                    {120, 240, 360, 480, 600, 720},
                    {},
                    0});
    pols.push_back({"batch-nx-agx",
                    {"nx", "agx"},
                    true,
                    {200, 400, 600, 800, 1000, 1200},
                    {},
                    0});
    return pols;
}

/**
 * Past-the-knee overload, admission control on vs off: the
 * protected queue sheds deadline-infeasible work at arrival and
 * keeps p99 near the SLO; the unprotected one grows without bound
 * and the tail diverges.
 */
struct Ablation
{
    double target_qps = 0.0;
    Point with_admission;
    Point without_admission;
};

Ablation
admissionAblation()
{
    Ablation ab;
    ab.target_qps = 900; // past batch-8 capacity (~680 qps on NX)
    std::printf("\n--- admission ablation (%s @ %.0f qps, batching "
                "on, single NX) ---\n",
                kModel, ab.target_qps);
    ab.with_admission = runPoint({"nx"}, true, ab.target_qps);

    serve::ServeConfig cfg = baseConfig({"nx"}, true);
    cfg.admission_control = false;
    serve::ModelConfig mc;
    mc.model = kModel;
    mc.slo_ms = kSloMs;
    mc.arrivals.qps = ab.target_qps;
    cfg.models.push_back(mc);
    serve::ServeReport rep = serve::runServer(cfg);
    const serve::ModelStats &s = rep.models.front();
    ab.without_admission.target_qps = ab.target_qps;
    ab.without_admission.offered_qps = s.offered_qps;
    ab.without_admission.goodput_qps = s.goodput_qps;
    ab.without_admission.p50_ms = s.p50_ms;
    ab.without_admission.p99_ms = s.p99_ms;
    ab.without_admission.mean_batch = s.mean_batch;
    ab.without_admission.offered = s.offered;
    ab.without_admission.shed = s.shed;
    ab.without_admission.violations = s.slo_violations;

    std::printf("admission on : p99 %8.2f ms, goodput %6.1f qps, "
                "shed %lld\n",
                ab.with_admission.p99_ms,
                ab.with_admission.goodput_qps,
                static_cast<long long>(ab.with_admission.shed));
    std::printf("admission off: p99 %8.2f ms, goodput %6.1f qps, "
                "shed %lld\n",
                ab.without_admission.p99_ms,
                ab.without_admission.goodput_qps,
                static_cast<long long>(ab.without_admission.shed));
    return ab;
}

/**
 * --watch-out: rerun the ablation's overload scenario with
 * EdgeWatch enabled and leave the watch report plus incident
 * dumps at the caller-chosen prefix. Deterministic by design —
 * the driver diffs two same-seed invocations byte for byte.
 */
void
watchedArtifactRun()
{
    serve::ServeConfig cfg = baseConfig({"nx"}, true);
    serve::ModelConfig mc;
    mc.model = kModel;
    mc.slo_ms = kSloMs;
    mc.arrivals.qps = 900;
    cfg.models.push_back(mc);
    cfg.watch.enabled = true;
    cfg.watch.out_path = g_watch_out + "watch.json";
    cfg.watch.incident_prefix = g_watch_out;
    serve::ServeReport rep = serve::runServer(cfg);
    std::printf("\nwatch artifacts at %s*: %lld page alert(s), "
                "%lld incident(s)\n",
                g_watch_out.c_str(),
                static_cast<long long>(rep.watch.alert_counts.pages),
                static_cast<long long>(rep.watch.incidents));
}

/** Same seeded scenario twice; reports must be byte-identical. */
bool
determinismCheck()
{
    auto once = [] {
        serve::ServeConfig cfg = baseConfig({"nx"}, true);
        cfg.duration_s = 1.0;
        serve::ModelConfig mc;
        mc.model = kModel;
        mc.slo_ms = kSloMs;
        mc.arrivals.qps = 300;
        cfg.models.push_back(mc);
        return serve::runServer(cfg).toJson();
    };
    std::string a = once();
    std::string b = once();
    bool same = a == b;
    std::printf("\nsame-seed determinism: reports %s\n",
                same ? "byte-identical" : "DIFFER");
    return same;
}

void
writeJsonReport(const std::vector<Policy> &pols, const Ablation &ab,
                bool same_seed)
{
    auto point = [](JsonWriter &w, const Point &p) {
        w.beginObject();
        w.field("target_qps", p.target_qps);
        w.field("offered_qps", p.offered_qps);
        w.field("goodput_qps", p.goodput_qps);
        w.field("p50_ms", p.p50_ms);
        w.field("p99_ms", p.p99_ms);
        w.field("mean_batch", p.mean_batch);
        w.field("offered", p.offered);
        w.field("shed", p.shed);
        w.field("slo_violations", p.violations);
        w.field("meets_slo", p.meetsSlo());
        w.endObject();
    };
    bench::saveBenchReport(
        "BENCH_serving.json", "bench_serving",
        [&](JsonWriter &w) {
            w.field("model", kModel);
            w.field("slo_ms", kSloMs);
            w.field("smoke", g_smoke);
            w.key("policies").beginArray();
            for (const Policy &pol : pols) {
                w.beginObject();
                w.field("policy", pol.name);
                w.key("devices").beginArray();
                for (const auto &d : pol.devices)
                    w.value(d);
                w.endArray();
                w.field("dynamic_batching", pol.dynamic_batching);
                w.field("max_qps_at_slo", pol.max_qps_at_slo);
                w.key("points").beginArray();
                for (const Point &p : pol.points)
                    point(w, p);
                w.endArray();
                w.endObject();
            }
            w.endArray();
            w.key("admission_ablation").beginObject();
            w.field("target_qps", ab.target_qps);
            w.key("with_admission");
            point(w, ab.with_admission);
            w.key("without_admission");
            point(w, ab.without_admission);
            w.endObject();
            w.field("same_seed_identical", same_seed);
        });
}

void
runFigures()
{
    // The embedded metric snapshot should cover this bench only.
    obs::MetricRegistry::global().reset();

    std::printf("=== EdgeServe policy sweep: %s, SLO %.0f ms, "
                "max QPS at p99 <= SLO per policy%s ===\n",
                kModel, kSloMs, g_smoke ? " (smoke)" : "");
    std::vector<Policy> pols = makePolicies();
    for (Policy &pol : pols)
        sweepPolicy(pol);

    std::printf("\n=== batching payoff ===\n");
    for (std::size_t i = 1; i < pols.size(); i += 2)
        std::printf("%-14s %7.1f qps  vs  %-14s %7.1f qps\n",
                    pols[i - 1].name.c_str(),
                    pols[i - 1].max_qps_at_slo,
                    pols[i].name.c_str(), pols[i].max_qps_at_slo);

    Ablation ab = admissionAblation();
    bool same_seed = determinismCheck();
    writeJsonReport(pols, ab, same_seed);
    if (!g_watch_out.empty())
        watchedArtifactRun();
}

/** Wall time of one small end-to-end serve scenario. */
void
BM_ServeScenario(benchmark::State &state)
{
    for (auto _ : state) {
        serve::ServeConfig cfg;
        cfg.devices.push_back(serve::parseDevice("nx"));
        cfg.duration_s = 0.5;
        serve::ModelConfig mc;
        mc.model = kModel;
        mc.slo_ms = kSloMs;
        mc.arrivals.qps = 200;
        cfg.models.push_back(mc);
        serve::ServeReport rep = serve::runServer(cfg);
        benchmark::DoNotOptimize(rep.models.front().p99_ms);
    }
}

} // namespace

BENCHMARK(BM_ServeScenario)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // Strip our own flags before the benchmark library sees argv.
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_smoke = true;
        else if (std::strcmp(argv[i], "--watch-out") == 0)
            g_watch_out = "BENCH_serving_watch.";
        else if (std::strncmp(argv[i], "--watch-out=", 12) == 0)
            g_watch_out = argv[i] + 12;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    runFigures();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

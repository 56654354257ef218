/**
 * @file
 * EdgeWatch benchmark: alerting latency, incident production and
 * tracing overhead for the serving observability layer.
 *
 * Three studies, all on the AlexNet serving scenario the policy
 * bench uses:
 *
 *  - clean: a comfortably-provisioned run. The burn-rate alerter
 *    must stay silent — any page-tier alert here is a false alarm
 *    and the process exits non-zero (the CI gate).
 *  - overload: offered load far past the capacity knee. The page
 *    alert must fire, and `first_page_s` is the alert latency —
 *    how much simulated time passes between the overload starting
 *    and the pager going off. The run writes its watch report and
 *    flight-recorder incident dumps next to BENCH_watch.json so CI
 *    archives a real incident artifact.
 *  - overhead: the same scenario with watch off vs on, wall-clock
 *    timed. Request-scoped tracing rides the existing replay event
 *    stream (the server always stages its enqueues), so the
 *    watch-on cost is one in-memory feed replay. The timings are
 *    host readings, so they go to stdout only; the report keeps
 *    each scenario's simulated request count and stays
 *    byte-identical across processes.
 *
 * A same-seed double run of the overload scenario must produce
 * byte-identical serve reports (watch block included); the report
 * carries that check's outcome too.
 *
 * `--smoke` shrinks durations for CI; the JSON shape is identical.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "report.hh"
#include "serve/server.hh"
#include "watch/watch.hh"

namespace {

using namespace edgert;

constexpr const char *kModel = "alexnet";
constexpr double kSloMs = 25.0;

bool g_smoke = false;

serve::ServeConfig
scenario(const char *model, double qps, double slo_ms, bool watch)
{
    serve::ServeConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = g_smoke ? 1.0 : 2.0;
    cfg.seed = 1;
    serve::ModelConfig mc;
    mc.model = model;
    mc.slo_ms = slo_ms;
    mc.arrivals.qps = qps;
    cfg.models.push_back(mc);
    cfg.watch.enabled = watch;
    return cfg;
}

serve::ServeConfig
scenario(double qps, bool watch)
{
    return scenario(kModel, qps, kSloMs, watch);
}

struct ScenarioOutcome
{
    std::string name;
    double qps = 0.0;
    watch::WatchSummary watch;
    double p99_ms = 0.0;
    std::int64_t offered = 0;
};

ScenarioOutcome
runWatched(const char *name, double qps, const std::string &out,
           const std::string &incident_prefix)
{
    serve::ServeConfig cfg = scenario(qps, true);
    cfg.watch.out_path = out;
    cfg.watch.incident_prefix = incident_prefix;
    serve::ServeReport rep = serve::runServer(cfg);
    ScenarioOutcome o;
    o.name = name;
    o.qps = qps;
    o.watch = rep.watch;
    o.p99_ms = rep.models.front().p99_ms;
    o.offered = rep.models.front().offered;
    const watch::AlertCounts &alerts = o.watch.alert_counts;
    std::printf("%-9s %4.0f qps: %lld page / %lld warn alert(s), "
                "first page %s, %lld anomaly(ies), %lld "
                "incident(s), %lld shed\n",
                name, qps, static_cast<long long>(alerts.pages),
                static_cast<long long>(alerts.warns),
                alerts.first_page_s < 0.0
                    ? "never"
                    : (std::to_string(alerts.first_page_s) + " s")
                          .c_str(),
                static_cast<long long>(o.watch.anomalies),
                static_cast<long long>(o.watch.incidents),
                static_cast<long long>(o.watch.shed));
    return o;
}

/** One timed runServer call, in wall milliseconds. */
double
timedRun(const serve::ServeConfig &cfg)
{
    auto t0 = std::chrono::steady_clock::now();
    serve::ServeReport rep = serve::runServer(cfg);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(rep.models.front().p99_ms);
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

void
writeScenario(JsonWriter &w, const ScenarioOutcome &o)
{
    w.beginObject();
    w.field("scenario", o.name);
    w.field("target_qps", o.qps);
    w.field("offered", o.offered);
    w.field("p99_ms", o.p99_ms);
    w.field("admitted", o.watch.admitted);
    w.field("shed", o.watch.shed);
    w.field("completed", o.watch.completed);
    w.field("page_alerts", o.watch.alert_counts.pages);
    w.field("warn_alerts", o.watch.alert_counts.warns);
    w.field("clear_alerts", o.watch.alert_counts.clears);
    w.field("first_page_s", o.watch.alert_counts.first_page_s);
    w.field("anomalies", o.watch.anomalies);
    w.field("incidents", o.watch.incidents);
    w.endObject();
}

int
runFigures()
{
    obs::MetricRegistry::global().reset();
    std::printf("=== EdgeWatch: alert latency, incidents, tracing "
                "overhead (%s, SLO %.0f ms%s) ===\n",
                kModel, kSloMs, g_smoke ? ", smoke" : "");

    // Clean: generous headroom; the pager must stay silent.
    ScenarioOutcome clean =
        runWatched("clean", 300, "BENCH_watch_clean.json",
                   "BENCH_watch_clean.");

    // Overload: far past the knee; the pager must fire and the
    // flight recorder must dump the run-up.
    ScenarioOutcome overload =
        runWatched("overload", 900, "BENCH_watch_overload.json",
                   "BENCH_watch_overload.");

    // Same-seed determinism over the full report (watch included).
    std::string again;
    {
        serve::ServeConfig cfg = scenario(900, true);
        cfg.watch.out_path = "BENCH_watch_overload.json";
        cfg.watch.incident_prefix = "BENCH_watch_overload.";
        again = serve::runServer(cfg).toJson();
    }
    std::string first;
    {
        serve::ServeConfig cfg = scenario(900, true);
        cfg.watch.out_path = "BENCH_watch_overload.json";
        cfg.watch.incident_prefix = "BENCH_watch_overload.";
        first = serve::runServer(cfg).toJson();
    }
    bool same_seed = first == again;
    std::printf("same-seed determinism (watch on): reports %s\n",
                same_seed ? "byte-identical" : "DIFFER");

    // Overhead: watch off vs on, two workloads. AlexNet is the
    // adversarial case — its requests simulate in ~3 us each, so a
    // fixed per-request watch cost shows at its very worst;
    // tiny-yolov3 is the representative case, with enough device
    // work per request that the percentage reflects a real serving
    // mix. A single run finishes in milliseconds, where scheduler
    // noise on a shared box swamps the signal, so the timed config
    // stretches the window (sim time is free), the off/on reps
    // interleave so slow machine phases hit both sides equally,
    // and the estimate is the min over reps — the classic
    // noise-robust choice for a deterministic workload.
    struct OverheadPoint
    {
        const char *model;
        double qps;
        double slo_ms;
        double off_ms = 0.0;
        double on_ms = 0.0;
        std::int64_t requests = 0;

        double pct() const
        {
            return off_ms > 0.0
                       ? 100.0 * (on_ms - off_ms) / off_ms
                       : 0.0;
        }
        double usPerRequest() const
        {
            return requests > 0
                       ? 1000.0 * (on_ms - off_ms) /
                             static_cast<double>(requests)
                       : 0.0;
        }
    };
    OverheadPoint overhead[] = {
        {"tiny-yolov3", 60, 60.0, 0, 0, 0},
        {kModel, 300, kSloMs, 0, 0, 0},
    };
    int reps = g_smoke ? 3 : 9;
    for (OverheadPoint &p : overhead) {
        serve::ServeConfig off_cfg =
            scenario(p.model, p.qps, p.slo_ms, false);
        serve::ServeConfig on_cfg =
            scenario(p.model, p.qps, p.slo_ms, true);
        off_cfg.duration_s = on_cfg.duration_s =
            g_smoke ? 2.0 : 8.0;
        serve::ServeReport warm =
            serve::runServer(off_cfg); // warm caches untimed
        p.requests = warm.models.front().offered;
        p.off_ms = p.on_ms = 1e300;
        for (int i = 0; i < reps; i++) {
            p.off_ms = std::min(p.off_ms, timedRun(off_cfg));
            p.on_ms = std::min(p.on_ms, timedRun(on_cfg));
        }
        std::printf("tracing overhead (%s): watch off %.1f ms, on "
                    "%.1f ms (%+.1f%%, %.2f us/request)\n",
                    p.model, p.off_ms, p.on_ms, p.pct(),
                    p.usPerRequest());
    }

    bench::saveBenchReport(
        "BENCH_watch.json", "bench_watch",
        [&](JsonWriter &w) {
            w.field("model", kModel);
            w.field("slo_ms", kSloMs);
            w.field("smoke", g_smoke);
            w.key("scenarios").beginArray();
            writeScenario(w, clean);
            writeScenario(w, overload);
            w.endArray();
            w.field("alert_latency_s",
                    overload.watch.alert_counts.first_page_s);
            w.field("same_seed_identical", same_seed);
            w.key("overhead").beginArray();
            for (const OverheadPoint &p : overhead) {
                w.beginObject();
                w.field("model", p.model);
                w.field("target_qps", p.qps);
                w.field("requests", p.requests);
                w.endObject();
            }
            w.endArray();
        });

    int rc = 0;
    if (clean.watch.alert_counts.pages > 0) {
        std::fprintf(stderr,
                     "FAIL: %lld page-tier alert(s) on the clean "
                     "scenario — the alerter false-alarmed\n",
                     static_cast<long long>(
                         clean.watch.alert_counts.pages));
        rc = 1;
    }
    if (overload.watch.alert_counts.pages < 1) {
        std::fprintf(stderr,
                     "FAIL: induced overload fired no page-tier "
                     "alert\n");
        rc = 1;
    }
    if (overload.watch.incidents < 1) {
        std::fprintf(stderr, "FAIL: induced overload dumped no "
                             "flight-recorder incident\n");
        rc = 1;
    }
    if (!same_seed) {
        std::fprintf(stderr, "FAIL: same-seed watched runs "
                             "differ\n");
        rc = 1;
    }
    return rc;
}

/** Wall time of one watched serve scenario end to end. */
void
BM_WatchedServeScenario(benchmark::State &state)
{
    for (auto _ : state) {
        serve::ServeReport rep = serve::runServer(scenario(300, true));
        benchmark::DoNotOptimize(rep.watch.completed);
    }
}

} // namespace

BENCHMARK(BM_WatchedServeScenario)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_smoke = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    int rc = runFigures();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return rc;
}

/**
 * @file
 * EdgeStream benchmark: the traffic-intersection study — N detection
 * camera streams through the staged decode → preprocess → infer →
 * postprocess pipeline on one simulated Xavier NX.
 *
 * Three studies on tiny-yolov3 at 30 fps per stream:
 *
 *  - capacity: sweep the stream count per precision
 *    (fp16 / mixed / int8) under skip_to_latest until the
 *    stale-frame rate breaks the budget — how many concurrent
 *    cameras one device sustains, and how much headroom
 *    quantization buys. The paper's throughput-ladder result
 *    restated as "cameras per device".
 *  - backpressure: the three policies at the overload point on the
 *    SAME seed. Gates: conservation (produced == completed +
 *    dropped + in_flight) must hold for every policy, and
 *    skip_to_latest must hold its stale-frame rate strictly below
 *    block — the whole point of dropping stale work instead of
 *    queueing it.
 *  - determinism: a same-seed double run must produce
 *    byte-identical reports, and a two-device run must be
 *    byte-identical between serial replay and --sim-threads=4.
 *
 * `--smoke` shrinks durations for CI; the JSON shape is identical.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "report.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace {

using namespace edgert;

constexpr const char *kModel = "tiny-yolov3";
constexpr double kFps = 30.0;
constexpr double kStaleMs = 100.0;

/** Stale-frame rate above this is "broken" in the capacity sweep. */
constexpr double kBreakPct = 1.0;

/** Stream count used for the backpressure face-off. */
constexpr int kOverloadStreams = 24;

bool g_smoke = false;

stream::StreamConfig
scenario(nn::Precision precision, int streams,
         stream::BackpressurePolicy policy)
{
    stream::StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = g_smoke ? 2.0 : 4.0;
    cfg.seed = 1;
    stream::StreamModelConfig mc;
    mc.model = kModel;
    mc.precision = precision;
    mc.streams = streams;
    mc.fps = kFps;
    mc.stale_ms = kStaleMs;
    mc.policy = policy;
    cfg.models.push_back(mc);
    return cfg;
}

struct PolicyOutcome
{
    std::string policy;
    stream::FreshnessStats freshness;
    bool conserved = false;
    double age_p99_ms = 0.0;
    std::int64_t pages = 0;
};

void
writePolicy(JsonWriter &w, const PolicyOutcome &o)
{
    w.beginObject();
    w.field("policy", o.policy);
    w.field("produced", o.freshness.produced);
    w.field("completed", o.freshness.completed);
    w.field("dropped", o.freshness.dropped);
    w.field("in_flight", o.freshness.in_flight);
    w.field("stale_rate_pct", o.freshness.stale_rate_pct);
    w.field("age_p99_ms", o.age_p99_ms);
    w.field("conserved", o.conserved);
    w.field("freshness_pages", o.pages);
    w.endObject();
}

int
runFigures()
{
    obs::MetricRegistry::global().reset();
    std::printf("=== EdgeStream: the traffic intersection — %s, "
                "%.0f fps/stream, %.0f ms stale budget%s ===\n",
                kModel, kFps, kStaleMs, g_smoke ? " (smoke)" : "");

    // Capacity: cameras per device, per precision.
    struct Rung
    {
        const char *name;
        nn::Precision precision;
        int sustained = 0;        //!< last count under budget
        int broke_at = 0;         //!< first count over (0: never)
        double broke_stale = 0.0; //!< stale rate at the break
    };
    Rung ladder[] = {
        {"fp16", nn::Precision::kFp16, 0, 0, 0.0},
        {"mixed", nn::Precision::kMixed, 0, 0, 0.0},
        {"int8", nn::Precision::kInt8, 0, 0, 0.0},
    };
    const std::vector<int> counts = {4, 8, 12, 16, 20, 24};
    JsonWriter sweep;
    sweep.beginArray();
    for (Rung &r : ladder) {
        for (int n : counts) {
            stream::StreamReport rep = stream::runStreams(
                scenario(r.precision, n,
                         stream::BackpressurePolicy::
                             kSkipToLatest));
            const auto &m = rep.models.front();
            std::printf("capacity %-5s %2d stream(s): stale %5.1f%% "
                        "| age p99 %7.2f ms | mean batch %.2f\n",
                        r.name, n, m.freshness.stale_rate_pct,
                        m.freshness.age_p99_ms, m.mean_batch);
            sweep.beginObject();
            sweep.field("precision", r.name);
            sweep.field("streams", n);
            sweep.field("stale_rate_pct",
                        m.freshness.stale_rate_pct);
            sweep.field("age_p99_ms", m.freshness.age_p99_ms);
            sweep.field("mean_batch", m.mean_batch);
            sweep.field("conserved", m.conserved);
            sweep.endObject();
            if (m.freshness.stale_rate_pct > kBreakPct) {
                r.broke_at = n;
                r.broke_stale = m.freshness.stale_rate_pct;
                break;
            }
            r.sustained = n;
        }
        if (r.broke_at > 0)
            std::printf("capacity %-5s sustains %d stream(s); "
                        "breaks at %d (stale %.1f%%)\n",
                        r.name, r.sustained, r.broke_at,
                        r.broke_stale);
        else
            std::printf("capacity %-5s sustains %d stream(s) "
                        "(never broke in the sweep)\n",
                        r.name, r.sustained);
    }
    sweep.endArray();

    // Backpressure: same seed, overload, three policies.
    const stream::BackpressurePolicy policies[] = {
        stream::BackpressurePolicy::kDropOldest,
        stream::BackpressurePolicy::kSkipToLatest,
        stream::BackpressurePolicy::kBlock,
    };
    std::vector<PolicyOutcome> outcomes;
    for (auto policy : policies) {
        stream::StreamReport rep = stream::runStreams(scenario(
            nn::Precision::kFp16, kOverloadStreams, policy));
        const auto &m = rep.models.front();
        PolicyOutcome o;
        o.policy = m.policy;
        o.freshness = m.freshness;
        o.conserved = m.conserved;
        o.age_p99_ms = m.freshness.age_p99_ms;
        o.pages = rep.freshness.pages;
        std::printf("backpressure %-14s @ %d streams: stale %5.1f%% "
                    "| dropped %5lld | in flight %5lld | age p99 "
                    "%8.2f ms | conservation %s\n",
                    o.policy.c_str(), kOverloadStreams,
                    o.freshness.stale_rate_pct,
                    static_cast<long long>(o.freshness.dropped),
                    static_cast<long long>(o.freshness.in_flight),
                    o.age_p99_ms, o.conserved ? "ok" : "VIOLATED");
        outcomes.push_back(std::move(o));
    }
    const PolicyOutcome &skip = outcomes[1];
    const PolicyOutcome &block = outcomes[2];

    // Determinism: same seed twice, then serial vs threaded on a
    // two-device fleet.
    stream::StreamConfig det =
        scenario(nn::Precision::kFp16, kOverloadStreams,
                 stream::BackpressurePolicy::kSkipToLatest);
    bool same_seed = stream::runStreams(det).toJson() ==
                     stream::runStreams(det).toJson();
    std::printf("same-seed determinism: reports %s\n",
                same_seed ? "byte-identical" : "DIFFER");
    stream::StreamConfig two =
        scenario(nn::Precision::kFp16, 8,
                 stream::BackpressurePolicy::kDropOldest);
    two.devices.push_back(serve::parseDevice("agx"));
    std::string serial = stream::runStreams(two).toJson();
    two.sim_threads = 4;
    bool threads_same = serial == stream::runStreams(two).toJson();
    std::printf("serial vs --sim-threads=4: reports %s\n",
                threads_same ? "byte-identical" : "DIFFER");

    bench::saveBenchReport(
        "BENCH_stream.json", "bench_stream",
        [&](JsonWriter &w) {
            w.field("model", kModel);
            w.field("fps", kFps);
            w.field("stale_ms", kStaleMs);
            w.field("smoke", g_smoke);
            w.field("break_pct", kBreakPct);
            w.key("capacity_sweep").raw(sweep.str());
            w.key("sustained_streams").beginObject();
            for (const Rung &r : ladder)
                w.field(r.name, r.sustained);
            w.endObject();
            w.field("overload_streams", kOverloadStreams);
            w.key("backpressure").beginArray();
            for (const PolicyOutcome &o : outcomes)
                writePolicy(w, o);
            w.endArray();
            w.field("same_seed_identical", same_seed);
            w.field("threads_identical", threads_same);
        });

    int rc = 0;
    for (const PolicyOutcome &o : outcomes)
        if (!o.conserved) {
            std::fprintf(stderr,
                         "FAIL: policy %s violated frame "
                         "conservation\n",
                         o.policy.c_str());
            rc = 1;
        }
    if (skip.freshness.stale_rate_pct >=
        block.freshness.stale_rate_pct) {
        std::fprintf(stderr,
                     "FAIL: skip_to_latest stale rate %.2f%% not "
                     "strictly below block's %.2f%% at the "
                     "overload point\n",
                     skip.freshness.stale_rate_pct,
                     block.freshness.stale_rate_pct);
        rc = 1;
    }
    if (!same_seed) {
        std::fprintf(stderr,
                     "FAIL: same-seed stream runs differ\n");
        rc = 1;
    }
    if (!threads_same) {
        std::fprintf(stderr, "FAIL: serial and threaded replay "
                             "reports differ\n");
        rc = 1;
    }
    return rc;
}

/** Wall time of one overloaded streaming scenario end to end. */
void
BM_StreamScenario(benchmark::State &state)
{
    for (auto _ : state) {
        stream::StreamReport rep = stream::runStreams(
            scenario(nn::Precision::kFp16, kOverloadStreams,
                     stream::BackpressurePolicy::kSkipToLatest));
        benchmark::DoNotOptimize(
            rep.models.front().freshness.completed);
    }
}

} // namespace

BENCHMARK(BM_StreamScenario)
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

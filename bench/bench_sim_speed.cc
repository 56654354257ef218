/**
 * @file
 * Simulation-throughput benchmark for the GpuSim hot path.
 *
 * The serving/fleet roadmap multiplies simulated work by orders of
 * magnitude, so the simulator's own speed — simulated device-seconds
 * per wall-clock second — is a first-class metric. This bench
 * replays two workload shapes straight against the GpuSim API and
 * times only the run() calls, so the numbers isolate the
 * discrete-event core from engine building and report assembly:
 *
 *  - "serving": the bench_serving shape — a few deeply saturated
 *    streams per device (AlexNet batch ladder, Poisson arrivals
 *    released with delayUntil(), NX + AGX). Stresses per-event
 *    arithmetic: share recomputation, water-fill, trace append.
 *  - "fleet": the EdgeFleet shape — many mostly-idle streams per
 *    device (one camera each at modest fps). Stresses the event
 *    calendar: most streams hold a pending release-time delay, so
 *    per-event cost is dominated by how fast the simulator can find
 *    the next event among hundreds of sleepers.
 *
 * The committed `bench/sim_speed_baseline.json` pins, per workload,
 * two reference points measured on the same replay: the pre-overhaul
 * event loop and the current one. The report carries speedup_vs_pre
 * per workload (the tentpole's >=10x target, measured on the fleet
 * shape that motivated the overhaul) and, under --check-baseline,
 * the process exits non-zero when any workload's speed regresses
 * more than 20% against its committed post number — that is the CI
 * gate. Each workload's speed is the median of kTimedRuns timed
 * runs, so one run slowed by other load on the machine cannot fail
 * the gate.
 *
 * `--smoke` shrinks the replays for CI; the JSON shape is identical.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/builder.hh"
#include "core/engine.hh"
#include "core/timing_cache.hh"
#include "gpusim/sim.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "report.hh"
#include "runtime/context.hh"
#include "serve/workload.hh"

namespace {

using namespace edgert;

bool g_smoke = false;

constexpr const char *kModel = "alexnet";

/** Workload knobs; must stay fixed so baseline numbers compare. */
struct Workload
{
    std::string name;
    std::vector<gpusim::DeviceSpec> devices;
    int streams_per_device = 4;
    double qps_per_stream = 300.0;
    double duration_s = 4.0;
    int reps = 2;
};

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> ws;
    {
        Workload w;
        w.name = "serving";
        w.devices.push_back(gpusim::DeviceSpec::xavierNX());
        w.devices.push_back(gpusim::DeviceSpec::xavierAGX());
        w.streams_per_device = 4;
        w.qps_per_stream = 300.0; // deep saturation
        ws.push_back(w);
    }
    {
        Workload w;
        w.name = "fleet";
        w.devices.push_back(gpusim::DeviceSpec::xavierNX());
        w.devices.push_back(gpusim::DeviceSpec::xavierAGX());
        w.streams_per_device = 256; // one camera per stream
        w.qps_per_stream = 0.5;     // sparse per-camera triggers
        ws.push_back(w);
    }
    for (Workload &w : ws) {
        if (g_smoke) {
            // Fleet keeps a longer smoke window: its wall time is
            // tiny post-overhaul and the CI gate needs signal.
            w.duration_s = w.name == "fleet" ? 1.0 : 0.5;
            w.reps = 1;
        }
    }
    return ws;
}

/** AlexNet power-of-two engine ladder for one device. */
std::vector<core::Engine>
buildLadder(const gpusim::DeviceSpec &spec,
            core::TimingCache &cache)
{
    core::BuilderConfig bcfg;
    bcfg.build_id = 1;
    bcfg.jobs = 1;
    bcfg.timing_cache = &cache;
    core::Builder builder(spec, bcfg);
    std::vector<core::Engine> ladder;
    for (int b : {1, 2, 4, 8})
        ladder.push_back(builder.build(nn::buildZooModel(kModel, b)));
    return ladder;
}

struct ReplayResult
{
    double simulated_s = 0.0; //!< summed device makespans
    double wall_s = 0.0;      //!< run() time only
    std::int64_t inferences = 0;
    std::uint64_t trace_records = 0;
    double speed() const
    {
        return wall_s > 0.0 ? simulated_s / wall_s : 0.0;
    }
};

/**
 * Enqueue the workload's replay into fresh sims and time only the
 * run() calls. Engine choice cycles the ladder per arrival so every
 * batch size stays resident, like a mixed dispatch plan.
 * @param mode    Trace policy; baseline-compared rows use kFull so
 *                numbers stay comparable across releases.
 * @param publish Publish each device's sim.* gauges (last rep) into
 *                the registry the bench report embeds.
 */
ReplayResult
runReplay(const Workload &w,
          const std::vector<std::vector<core::Engine>> &ladders,
          gpusim::TraceMode mode = gpusim::TraceMode::kFull,
          bool publish = false)
{
    ReplayResult res;
    for (int rep = 0; rep < w.reps; rep++) {
        std::vector<std::unique_ptr<gpusim::GpuSim>> sims;
        std::vector<
            std::vector<std::unique_ptr<runtime::ExecutionContext>>>
            ctxs; // [device * stream][engine]

        Rng root(42 + static_cast<std::uint64_t>(rep));
        for (std::size_t d = 0; d < w.devices.size(); d++) {
            auto sim =
                std::make_unique<gpusim::GpuSim>(w.devices[d]);
            sim->setTraceMode(mode);
            for (int s = 0; s < w.streams_per_device; s++) {
                int stream = s == 0 ? 0 : sim->createStream();
                ctxs.emplace_back();
                for (const auto &eng : ladders[d])
                    ctxs.back().push_back(
                        std::make_unique<runtime::ExecutionContext>(
                            eng, *sim, stream));
                serve::ArrivalConfig ac;
                ac.qps = w.qps_per_stream;
                Rng rng = root.fork(
                    static_cast<std::uint64_t>(d * 1000 + s));
                std::vector<double> arrivals =
                    serve::generateArrivals(ac, w.duration_s, rng);
                std::size_t i = 0;
                for (double t : arrivals) {
                    sim->delayUntil(stream, t);
                    ctxs.back()[i % ladders[d].size()]
                        ->enqueueInference();
                    res.inferences++;
                    i++;
                }
            }
            sims.push_back(std::move(sim));
        }

        for (auto &sim : sims) {
            auto t0 = std::chrono::steady_clock::now();
            sim->run();
            auto t1 = std::chrono::steady_clock::now();
            res.wall_s += std::chrono::duration<double>(t1 - t0).count();
            res.simulated_s += sim->nowSeconds();
            res.trace_records += sim->trace().size();
        }
        if (publish && rep == w.reps - 1)
            for (std::size_t d = 0; d < sims.size(); d++)
                gpusim::publishSimMetrics(
                    sims[d]->simStats(),
                    {{"workload", w.name},
                     {"device", w.devices[d].name},
                     {"index", std::to_string(d)}});
    }
    return res;
}

/**
 * Run `replay`, then put the global registry back as it was before.
 * The report embeds one full-trace replay per workload, so the other
 * timed runs and the trace-mode runs must not add to it.
 */
ReplayResult
unrecorded(const std::function<ReplayResult()> &replay)
{
    obs::MetricRegistry &global = obs::MetricRegistry::global();
    obs::MetricRegistry saved;
    saved.mergeFrom(global);
    ReplayResult res = replay();
    global.reset();
    global.mergeFrom(saved);
    return res;
}

/** Timed full-trace runs per workload; the report and the gate use
 *  their median. */
constexpr int kTimedRuns = 3;

/** The median-speed run of kTimedRuns full-trace replays; only the
 *  first records into the global registry. */
ReplayResult
medianReplay(const Workload &w,
             const std::vector<std::vector<core::Engine>> &ladders)
{
    std::vector<ReplayResult> runs;
    runs.push_back(runReplay(w, ladders, gpusim::TraceMode::kFull,
                             /*publish=*/true));
    for (int i = 1; i < kTimedRuns; i++)
        runs.push_back(unrecorded([&] { return runReplay(w, ladders); }));
    std::sort(runs.begin(), runs.end(),
              [](const ReplayResult &a, const ReplayResult &b) {
                  return a.speed() < b.speed();
              });
    return runs[kTimedRuns / 2];
}

/** Pull `"key": <number>` out of a flat JSON document (no parser in
 *  common/, and the baseline file is trusted repo content). */
bool
extractNumber(const std::string &doc, const std::string &key,
              double *out)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    *out = std::strtod(doc.c_str() + pos, nullptr);
    return true;
}

struct Baseline
{
    bool found = false;
    double pre = 0.0;  //!< pre-overhaul sim speed, this workload
    double post = 0.0; //!< committed post-overhaul sim speed
};

Baseline
loadBaseline(const std::string &doc, const std::string &workload)
{
    Baseline b;
    std::string key =
        std::string(g_smoke ? "smoke" : "full") + "_" + workload;
    b.found = extractNumber(doc, key + "_pre_sim_speed", &b.pre) &&
              extractNumber(doc, key + "_post_sim_speed", &b.post);
    return b;
}

std::string
loadBaselineDoc(const std::string &path)
{
    for (const std::string &p :
         {path, "../bench/" + path, "../../bench/" + path,
          "bench/" + path}) {
        std::ifstream f(p);
        if (!f)
            continue;
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    bool check_baseline = false;
    std::string baseline_path = "sim_speed_baseline.json";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_smoke = true;
        else if (std::strcmp(argv[i], "--check-baseline") == 0)
            check_baseline = true;
        else if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baseline_path = argv[i] + 11;
    }

    obs::MetricRegistry::global().reset();
    std::vector<Workload> workloads = makeWorkloads();

    core::TimingCache cache;
    std::vector<std::vector<core::Engine>> ladders;
    for (const auto &spec : workloads[0].devices)
        ladders.push_back(buildLadder(spec, cache));

    std::string base_doc = loadBaselineDoc(baseline_path);
    if (base_doc.empty())
        std::printf("baseline file not found (looked for %s); "
                    "reporting raw speeds only\n",
                    baseline_path.c_str());

    struct Row
    {
        ReplayResult res;
        Baseline base;
        double speedup_vs_pre = 0.0;
        double vs_committed = 0.0;
        bool pass = true;
        ReplayResult sampled; //!< 1-rep TraceMode::kSampled run
        ReplayResult off;     //!< 1-rep TraceMode::kOff run
    };
    std::vector<Row> rows;
    bool all_pass = true;

    for (const Workload &w : workloads) {
        std::printf("=== %s: %s ladder replay, %d streams/device, "
                    "%.0f qps/stream, %.1fs x %d reps%s ===\n",
                    w.name.c_str(), kModel, w.streams_per_device,
                    w.qps_per_stream, w.duration_s, w.reps,
                    g_smoke ? " (smoke)" : "");
        Row row;
        row.res = medianReplay(w, ladders);
        std::printf("replayed %lld inferences (%llu trace "
                    "records)\n",
                    static_cast<long long>(row.res.inferences),
                    static_cast<unsigned long long>(
                        row.res.trace_records));
        std::printf("simulated %.3f device-seconds in %.3f wall "
                    "seconds -> %.1fx realtime (median of %d runs)\n",
                    row.res.simulated_s, row.res.wall_s,
                    row.res.speed(), kTimedRuns);
        row.base = loadBaseline(base_doc, w.name);
        if (row.base.found) {
            row.speedup_vs_pre =
                row.base.pre > 0.0 ? row.res.speed() / row.base.pre
                                   : 0.0;
            row.vs_committed = row.base.post > 0.0
                                   ? row.res.speed() / row.base.post
                                   : 0.0;
            row.pass = row.vs_committed >= 0.8;
            std::printf("baseline: pre-overhaul %.1fx, committed "
                        "%.1fx -> speedup vs pre %.2fx, vs "
                        "committed %.0f%%%s\n",
                        row.base.pre, row.base.post,
                        row.speedup_vs_pre,
                        row.vs_committed * 100.0,
                        row.pass ? "" : "  ** REGRESSION **");
        }
        all_pass = all_pass && row.pass;
        // Trace-mode reference points (1 rep, outside the baseline
        // comparison): what thinning or dropping the trace buys.
        {
            Workload w1 = w;
            w1.reps = 1;
            row.sampled = unrecorded([&] {
                return runReplay(w1, ladders,
                                 gpusim::TraceMode::kSampled);
            });
            row.off = unrecorded([&] {
                return runReplay(w1, ladders, gpusim::TraceMode::kOff);
            });
            std::printf("trace modes: sampled 1/16 %.1fx (%llu "
                        "records), off %.1fx\n",
                        row.sampled.speed(),
                        static_cast<unsigned long long>(
                            row.sampled.trace_records),
                        row.off.speed());
        }
        rows.push_back(row);
    }

    bench::saveBenchReport(
        "BENCH_sim_speed.json", "bench_sim_speed",
        [&](JsonWriter &w2) {
            w2.field("smoke", g_smoke);
            w2.field("model", kModel);
            // Headline: the fleet shape is what the overhaul is
            // for; serving rides along as the arithmetic-bound
            // reference point.
            const Row &fleet = rows.back();
            w2.field("sim_speed", fleet.res.speed());
            w2.field("speedup_vs_pre", fleet.speedup_vs_pre);
            w2.field("pass", all_pass);
            w2.key("workloads").beginArray();
            for (std::size_t i = 0; i < workloads.size(); i++) {
                const Workload &w = workloads[i];
                const Row &row = rows[i];
                w2.beginObject();
                w2.field("name", w.name);
                w2.key("devices").beginArray();
                for (const auto &spec : w.devices)
                    w2.value(spec.name);
                w2.endArray();
                w2.field("streams_per_device",
                         w.streams_per_device);
                w2.field("qps_per_stream", w.qps_per_stream);
                w2.field("duration_s", w.duration_s);
                w2.field("reps", w.reps);
                w2.field("timed_runs", kTimedRuns);
                w2.field("inferences", row.res.inferences);
                w2.field("trace_records", row.res.trace_records);
                w2.field("simulated_seconds", row.res.simulated_s);
                w2.field("wall_seconds", row.res.wall_s);
                w2.field("sim_speed", row.res.speed());
                w2.field("baseline_found", row.base.found);
                w2.field("pre_overhaul_sim_speed", row.base.pre);
                w2.field("committed_sim_speed", row.base.post);
                w2.field("speedup_vs_pre", row.speedup_vs_pre);
                w2.field("vs_committed", row.vs_committed);
                w2.field("pass", row.pass);
                w2.field("trace_sampled_sim_speed",
                         row.sampled.speed());
                w2.field("trace_sampled_records",
                         row.sampled.trace_records);
                w2.field("trace_off_sim_speed", row.off.speed());
                w2.endObject();
            }
            w2.endArray();
        });

    if (check_baseline && !all_pass) {
        std::fprintf(stderr,
                     "sim-speed regression: a workload is below "
                     "80%% of its committed baseline\n");
        return 1;
    }
    return 0;
}

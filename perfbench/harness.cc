/**
 * @file
 * perfbench harness: calls one simulator entrypoint in-process and
 * prints the raw host-cost samples of every call as one JSON document
 * on stdout. perfbench/run.py turns the samples into metrics and
 * checks the reports; this file only measures.
 *
 *   perfbench_harness <workload> <seed> <seconds> <trace 0|1>
 *
 * One call is what a CLI does: the entrypoint, then the report's
 * toJson() and the global MetricRegistry's toJson().
 *
 * trace 0: one call at the default seed (the committed-digest check;
 *   it doubles as the warm-up), then calls at <seed> until <seconds>
 *   have passed, each followed by one call at the shortest simulated
 *   duration (setup cost). Tracing stays off throughout.
 * trace 1: one cold traced call while a sampler thread reads VmRSS,
 *   then untraced and traced calls alternately until <seconds> have
 *   passed, so the tracing overhead is measured on the same heap.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

using namespace edgert;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

/** Every entrypoint rejects duration_s <= 0; this is as short as a
 *  run gets while still building, placing and replaying. */
constexpr double kSetupDurationS = 1e-6;

/** Enough calls for a tail percentile with ten samples beyond it. */
constexpr std::size_t kMinCalls = 11;

/** Runs the entrypoint and serializes its report. */
using Entry = std::function<std::string()>;

template <class Cfg, class Run>
Entry
entryOf(Cfg cfg, Run run)
{
    return [cfg = std::move(cfg), run] {
        auto report = [&] {
            obs::ScopedSpan span("bench_entry");
            return run(cfg);
        }();
        obs::ScopedSpan span("bench_report_json");
        return report.toJson();
    };
}

struct Prepared
{
    Entry entry;
    std::string kind; //!< serve | fleet | stream
    int units = 0;    //!< simulated devices (serve, stream) or nodes
};

/** bench_fleet's scale study: many nodes, few events each. */
Prepared
fleetScale(std::uint64_t seed, double duration_s)
{
    fleet::FleetConfig cfg;
    cfg.groups = {fleet::parseNodeGroup("nx:400"),
                  fleet::parseNodeGroup("agx:80"),
                  fleet::parseNodeGroup(
                      "nx:20:clock=0.6:name=straggler")};
    fleet::FleetModelConfig mc;
    mc.model = "resnet-18";
    mc.arrivals.qps = 120000.0;
    mc.slo_ms = 50.0;
    cfg.models = {mc};
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.sim_threads = 4;
    cfg.seed = seed;
    cfg.duration_s = duration_s;
    int nodes = 0;
    for (const auto &g : cfg.groups)
        nodes += g.count;
    return {entryOf(std::move(cfg), fleet::runFleet), "fleet", nodes};
}

/** Two devices with long event streams; the only watch workload. */
Prepared
serveMix(std::uint64_t seed, double duration_s)
{
    serve::ServeConfig cfg;
    cfg.devices = {serve::parseDevice("nx"), serve::parseDevice("agx")};
    const struct
    {
        const char *model;
        double qps, slo_ms;
    } models[] = {{"alexnet", 300.0, 25.0},
                  {"resnet-18", 200.0, 50.0},
                  {"mobilenetv1", 300.0, 20.0}};
    for (const auto &m : models) {
        serve::ModelConfig mc;
        mc.model = m.model;
        mc.arrivals.qps = m.qps;
        mc.slo_ms = m.slo_ms;
        cfg.models.push_back(mc);
    }
    cfg.watch.enabled = true; // in memory: no out_path
    cfg.trace_mode = gpusim::TraceMode::kSampled;
    cfg.sim_threads = 2;
    cfg.seed = seed;
    cfg.duration_s = duration_s;
    int devices = static_cast<int>(cfg.devices.size());
    return {entryOf(std::move(cfg), serve::runServer), "serve",
            devices};
}

/**
 * An overloaded skip_to_latest lane that evicts frames, beside a
 * drop_oldest lane. Cameras are jittered: at fixed fps the seed picks
 * a phase alignment that sets the batching regime of the whole run,
 * and GpuSim launches per call vary by +-20% across seeds; with
 * jitter they vary by under 1%.
 */
Prepared
streamCameras(std::uint64_t seed, double duration_s)
{
    stream::StreamConfig cfg;
    cfg.devices = {serve::parseDevice("nx"), serve::parseDevice("agx")};
    stream::StreamModelConfig yolo;
    yolo.model = "tiny-yolov3";
    yolo.streams = 32;
    yolo.policy = stream::BackpressurePolicy::kSkipToLatest;
    yolo.arrival = stream::FrameArrival::kJitteredCamera;
    stream::StreamModelConfig mobilenet;
    mobilenet.model = "mobilenetv1";
    mobilenet.streams = 16;
    mobilenet.policy = stream::BackpressurePolicy::kDropOldest;
    mobilenet.arrival = stream::FrameArrival::kJitteredCamera;
    cfg.models = {yolo, mobilenet};
    cfg.trace_mode = gpusim::TraceMode::kSampled;
    cfg.sim_threads = 2;
    cfg.seed = seed;
    cfg.duration_s = duration_s;
    int devices = static_cast<int>(cfg.devices.size());
    return {entryOf(std::move(cfg), stream::runStreams), "stream",
            devices};
}

struct Workload
{
    const char *name;
    double duration_s; //!< simulated seconds of one measured call
    Prepared (*prepare)(std::uint64_t seed, double duration_s);
};

// Durations keep one call near 0.4 s of wall on a 4-core host, so a
// run holds dozens of calls and peak RSS stays well under 1 GB.
const Workload kWorkloads[] = {
    {"fleet_scale", 0.25, fleetScale},
    {"serve_mix", 40.0, serveMix},
    {"stream_cameras", 60.0, streamCameras},
};

rusage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

double
cpuSeconds(const rusage &ru)
{
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string
fnv1a64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

struct Call
{
    bool traced = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    long minor_faults = 0;
    std::string report;
    std::string metrics;
    std::vector<obs::SpanRecord> spans;
};

/**
 * One call as a CLI process makes it. The registry is zeroed first so
 * every call starts from the state a fresh process has.
 */
Call
runCall(const Entry &entry, bool traced)
{
    obs::MetricRegistry::global().reset();
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(traced);

    Call c;
    c.traced = traced;
    const rusage r0 = usage();
    const auto t0 = std::chrono::steady_clock::now();
    {
        obs::ScopedSpan span("bench_call");
        c.report = entry();
        obs::ScopedSpan snapshot("bench_metrics_json");
        c.metrics = obs::MetricRegistry::global().toJson();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const rusage r1 = usage();
    c.cpu_s = cpuSeconds(r1) - cpuSeconds(r0);
    c.minor_faults = r1.ru_minflt - r0.ru_minflt;
    tracer.setEnabled(false);

    c.wall_s = std::chrono::duration<double>(t1 - t0).count();
    if (traced) {
        // The traced wall is the outer span itself, so the self times
        // run.py derives from the spans sum to it exactly.
        c.spans = tracer.spans();
        for (const auto &s : c.spans)
            if (s.name == "bench_call")
                c.wall_s = static_cast<double>(s.end_ns - s.start_ns) *
                           1e-9;
    }
    return c;
}

long
vmRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return -1;
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            kb = std::strtol(line + 6, nullptr, 10);
            break;
        }
    std::fclose(f);
    return kb;
}

/** Reads VmRSS about once a millisecond on its own thread, stamped
 *  with the span clock so samples can be matched to phases. */
class RssSampler
{
  public:
    using Sample = std::pair<std::uint64_t, long>; //!< (ns, kB)

    RssSampler()
        : thread_([this](std::stop_token stop) {
              while (!stop.stop_requested()) {
                  samples_.emplace_back(obs::clock().nowNanos(),
                                        vmRssKb());
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(1));
              }
          })
    {}

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    std::vector<Sample>
    finish()
    {
        thread_.request_stop();
        thread_.join();
        return std::move(samples_);
    }

  private:
    std::vector<Sample> samples_;
    std::jthread thread_; //!< last: starts after, joins before samples_
};

void
writeCall(std::ostream &os, const Call &c)
{
    os << "{\"traced\":" << (c.traced ? "true" : "false")
       << ",\"wall_s\":" << jsonNumber(c.wall_s)
       << ",\"cpu_s\":" << jsonNumber(c.cpu_s)
       << ",\"minor_faults\":" << c.minor_faults << ",\"hash\":\""
       << fnv1a64(c.report) << "\",\"spans\":[";
    for (std::size_t i = 0; i < c.spans.size(); i++) {
        const auto &s = c.spans[i];
        os << (i ? "," : "") << "[\"" << jsonEscape(s.name) << "\","
           << s.thread << "," << s.start_ns << "," << s.end_ns << "]";
    }
    os << "]}";
}

int
run(int argc, char **argv)
{
    if (argc != 5) {
        std::fprintf(stderr, "usage: perfbench_harness <workload> "
                             "<seed> <seconds> <trace 0|1>\n");
        return 2;
    }
    const Workload *wl = nullptr;
    for (const auto &w : kWorkloads)
        if (std::strcmp(w.name, argv[1]) == 0)
            wl = &w;
    if (!wl) {
        std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
        return 2;
    }
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    const double seconds = std::strtod(argv[3], nullptr);
    const bool trace = std::strcmp(argv[4], "1") == 0;

    // EdgeWatch pages are expected on serve_mix; printing them would
    // add terminal I/O to every measured call.
    setLogLevel(LogLevel::kError);

    Prepared timed = wl->prepare(seed, wl->duration_s);
    std::vector<Call> calls;
    std::vector<double> setup_wall_s;
    std::vector<RssSampler::Sample> rss;
    Call check;

    auto measureFor = [&](auto &&next) {
        const auto start = std::chrono::steady_clock::now();
        while (calls.size() < kMinCalls ||
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                       .count() < seconds)
            calls.push_back(next());
    };

    if (!trace) {
        check = runCall(wl->prepare(kDefaultSeed, wl->duration_s).entry,
                        false);
        // A setup call follows every timed call, so the millisecond
        // setup samples span the same window, and the same host
        // noise, as the timed ones.
        Entry setup = wl->prepare(seed, kSetupDurationS).entry;
        measureFor([&] {
            Call c = runCall(timed.entry, false);
            setup_wall_s.push_back(runCall(setup, false).wall_s);
            return c;
        });
    } else {
        RssSampler sampler;
        calls.push_back(runCall(timed.entry, true));
        rss = sampler.finish();
        measureFor([&] {
            return runCall(timed.entry, calls.size() % 2 == 0);
        });
    }
    const long max_rss_kb = usage().ru_maxrss;

    std::ostream &os = std::cout;
    os << "{\"workload\":\"" << wl->name << "\",\"kind\":\""
       << timed.kind << "\",\"units\":" << timed.units
       << ",\"duration_s\":" << jsonNumber(wl->duration_s)
       << ",\"seed\":" << seed << ",\"default_seed\":" << kDefaultSeed
       << ",\"max_rss_kb\":" << max_rss_kb << ",\"report\":\""
       << jsonEscape(calls.front().report) << "\",\"metrics\":\""
       << jsonEscape(calls.front().metrics) << "\"";
    if (!trace)
        os << ",\"check\":{\"report\":\"" << jsonEscape(check.report)
           << "\",\"hash\":\"" << fnv1a64(check.report) << "\"}";
    os << ",\"setup_wall_s\":[";
    for (std::size_t i = 0; i < setup_wall_s.size(); i++)
        os << (i ? "," : "") << jsonNumber(setup_wall_s[i]);
    os << "],\"rss_samples\":[";
    for (std::size_t i = 0; i < rss.size(); i++)
        os << (i ? "," : "") << "[" << rss[i].first << ","
           << rss[i].second << "]";
    os << "],\"calls\":[";
    for (std::size_t i = 0; i < calls.size(); i++) {
        os << (i ? "," : "");
        writeCall(os, calls[i]);
    }
    os << "]}\n";
    os.flush();
    return os ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed its diagnostic; exit non-zero.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}

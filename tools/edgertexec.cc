/**
 * @file
 * edgertexec — a trtexec-style command-line driver for EdgeRT.
 *
 * Build an engine for any zoo model (or a saved .ertn network) on a
 * simulated device, measure it, and optionally dump profiles or the
 * serialized plan.
 *
 * Examples:
 *   edgertexec --model resnet-18 --device nx
 *   edgertexec --model googlenet --device agx --int8 --runs 20
 *   edgertexec --model tiny-yolov3 --device nx --threads 8 --profile
 *   edgertexec --model resnet-18 --device nx --save-engine plan.erte
 *   edgertexec --load-engine plan.erte --device agx
 *   edgertexec --model resnet-18 --trace-build --metrics-out=m.json
 */

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "core/builder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "core/timing_cache.hh"
#include "gpusim/device.hh"
#include "nn/dot.hh"
#include "nn/model_zoo.hh"
#include "nn/serialize.hh"
#include "profile/nvprof.hh"
#include "profile/trace_export.hh"
#include "runtime/context.hh"
#include "runtime/measure.hh"

using namespace edgert;

namespace {

/** Progress chatter ("[edgertexec] ..."); silenced by --quiet. */
void
say(const char *fmt, ...)
{
    if (logLevel() > LogLevel::kInfo)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
}

struct Args
{
    std::string model;
    std::string load_network;    //!< .ertn path
    std::string load_engine;     //!< .erte path
    std::string save_engine;
    std::string device = "nx";
    nn::Precision precision = nn::Precision::kFp16;
    std::uint64_t build_id = 1;
    int jobs = 1;             //!< builder autotuning threads; 0=auto
    std::string timing_cache; //!< persistent tactic-timing cache
    int runs = 10;
    int threads = 0;      //!< >0 enables the throughput protocol
    bool profile = false; //!< print the nvprof-style summary
    bool max_clock = false;
    bool no_nvprof_overhead = false;
    bool verbose_build = false;
    bool quiet = false;        //!< log level kWarn
    bool verbose = false;      //!< log level kDebug
    bool trace_build = false;  //!< span-trace the build phases
    std::string metrics_out;   //!< metric snapshot path
    std::string metrics_format = "json"; //!< json | prom
    std::string dump_dot;   //!< write the model graph as .dot
    std::string dump_trace; //!< write a chrome://tracing timeline
};

void
usage()
{
    std::printf(
        "usage: edgertexec [options]\n"
        "  --model <name>        zoo model (see --list)\n"
        "  --load-network <f>    load a serialized .ertn model\n"
        "  --load-engine <f>     load a serialized .erte plan\n"
        "  --save-engine <f>     write the built plan\n"
        "  --device nx|agx       target platform (default nx)\n"
        "  --fp32|--fp16|--int8  precision (default fp16)\n"
        "  --build-id <n>        pin the build (default 1)\n"
        "  --jobs <n>            parallel autotuning threads "
        "(default 1 = serial,\n"
        "                        0 = one per hardware thread; any "
        "value builds a\n"
        "                        bit-identical engine for a pinned "
        "--build-id)\n"
        "  --timing-cache <f>    persistent tactic-timing cache: "
        "loaded if the\n"
        "                        file exists, updated with this "
        "build's fresh\n"
        "                        measurements, written back. A warm "
        "cache freezes\n"
        "                        tactic choices across rebuilds "
        "(Finding 6\n"
        "                        mitigation) and skips re-timing "
        "known tactics.\n"
        "                        Caches are per device preset.\n"
        "  --runs <n>            latency runs (default 10)\n"
        "  --threads <n>         throughput mode with n streams\n"
        "  --max-clock           MAXN clocks instead of pinned\n"
        "  --no-profiler         drop the nvprof overhead model\n"
        "  --profile             print per-kernel summary\n"
        "  --verbose-build       print the autotuner's choices\n"
        "  --quiet               warnings and errors only\n"
        "  --verbose             debug-level log output (tactic\n"
        "                        choices, cache probes)\n"
        "  --trace-build         record host-side build spans and\n"
        "                        merge them with the device timeline\n"
        "                        into --dump-trace (default\n"
        "                        trace.json); open in\n"
        "                        chrome://tracing\n"
        "  --metrics-out <f>     write the metric-registry snapshot\n"
        "                        (counters, gauges, histograms)\n"
        "  --metrics-format <f>  snapshot format: json (default) "
        "or\n"
        "                        prom (Prometheus text exposition)\n"
        "  --dump-dot <f>        write the model graph (Graphviz)\n"
        "  --dump-trace <f>      write a chrome://tracing timeline\n"
        "  --list                list zoo models\n"
        "Options also accept --opt=value syntax.\n");
}

std::optional<Args>
parse(int argc, char **argv)
{
    Args a;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--model"))
            a.model = flags.value();
        else if (flags.is("--load-network"))
            a.load_network = flags.value();
        else if (flags.is("--load-engine"))
            a.load_engine = flags.value();
        else if (flags.is("--save-engine"))
            a.save_engine = flags.value();
        else if (flags.is("--device"))
            a.device = flags.value();
        else if (flags.is("--fp32"))
            a.precision = nn::Precision::kFp32;
        else if (flags.is("--fp16"))
            a.precision = nn::Precision::kFp16;
        else if (flags.is("--int8"))
            a.precision = nn::Precision::kInt8;
        else if (flags.is("--build-id"))
            a.build_id = flags.unsignedValue();
        else if (flags.is("--jobs"))
            a.jobs = static_cast<int>(flags.intValue());
        else if (flags.is("--timing-cache"))
            a.timing_cache = flags.value();
        else if (flags.is("--runs"))
            a.runs = static_cast<int>(flags.intValue());
        else if (flags.is("--threads"))
            a.threads = static_cast<int>(flags.intValue());
        else if (flags.is("--max-clock"))
            a.max_clock = true;
        else if (flags.is("--no-profiler"))
            a.no_nvprof_overhead = true;
        else if (flags.is("--profile"))
            a.profile = true;
        else if (flags.is("--verbose-build"))
            a.verbose_build = true;
        else if (flags.is("--quiet"))
            a.quiet = true;
        else if (flags.is("--verbose"))
            a.verbose = true;
        else if (flags.is("--trace-build"))
            a.trace_build = true;
        else if (flags.is("--metrics-out"))
            a.metrics_out = flags.value();
        else if (flags.is("--metrics-format")) {
            a.metrics_format = flags.value();
            if (a.metrics_format != "json" &&
                a.metrics_format != "prom")
                fatal("invalid value '", a.metrics_format,
                      "' for --metrics-format: expected json|prom");
        } else if (flags.is("--dump-dot"))
            a.dump_dot = flags.value();
        else if (flags.is("--dump-trace"))
            a.dump_trace = flags.value();
        else if (flags.is("--list")) {
            for (const auto &m : nn::zooModelNames())
                std::printf("%s\n", m.c_str());
            return std::nullopt;
        } else if (flags.is("--help") || flags.is("-h")) {
            usage();
            return std::nullopt;
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         flags.arg().c_str());
            usage();
            return std::nullopt;
        }
    }
    return a;
}

int
run(int argc, char **argv)
{
    auto parsed = parse(argc, argv);
    if (!parsed)
        return 0;
    Args args = *parsed;

    if (args.quiet && args.verbose)
        fatal("--quiet and --verbose are mutually exclusive");
    if (args.quiet)
        setLogLevel(LogLevel::kWarn);
    if (args.verbose)
        setLogLevel(LogLevel::kDebug);
    if (args.trace_build)
        obs::Tracer::global().setEnabled(true);

    gpusim::DeviceSpec dev = args.device == "agx"
                                 ? gpusim::DeviceSpec::xavierAGX()
                                 : gpusim::DeviceSpec::xavierNX();
    if (args.device != "agx" && args.device != "nx")
        fatal("unknown device '", args.device, "' (nx|agx)");
    if (args.max_clock)
        dev = dev.atMaxClock();

    // --- Obtain the engine ---
    core::Engine engine;
    if (!args.load_engine.empty()) {
        std::ifstream f(args.load_engine, std::ios::binary);
        if (!f)
            fatal("cannot open engine '", args.load_engine, "'");
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(f)),
            std::istreambuf_iterator<char>());
        auto loaded = core::Engine::deserialize(bytes);
        if (!loaded.ok())
            fatal("cannot load engine '", args.load_engine,
                  "': ", loaded.status().toString());
        engine = std::move(loaded).value();
        say("[edgertexec] loaded engine %s (built on %s, "
                    "fingerprint %016llx)\n",
                    engine.modelName().c_str(),
                    engine.deviceName().c_str(),
                    static_cast<unsigned long long>(
                        engine.fingerprint()));
    } else {
        nn::Network net = [&]() {
            if (args.load_network.empty())
                return nn::buildZooModel(
                    args.model.empty() ? "resnet-18" : args.model);
            auto loaded = nn::loadNetwork(args.load_network);
            if (!loaded.ok())
                fatal("cannot load network '", args.load_network,
                      "': ", loaded.status().toString());
            return std::move(loaded).value();
        }();
        say("[edgertexec] model %s: %lld convs, %lld "
                    "max-pools, %.2f MiB fp32\n",
                    net.name().c_str(),
                    static_cast<long long>(net.convCount()),
                    static_cast<long long>(net.maxPoolCount()),
                    static_cast<double>(net.modelSizeBytes()) /
                        (1024.0 * 1024.0));

        if (!args.dump_dot.empty()) {
            std::ofstream f(args.dump_dot);
            if (!f)
                fatal("cannot write '", args.dump_dot, "'");
            nn::writeDot(f, net);
            say("[edgertexec] graph written to %s\n",
                        args.dump_dot.c_str());
        }

        core::BuilderConfig cfg;
        cfg.precision = args.precision;
        cfg.build_id = args.build_id;
        cfg.jobs = args.jobs;

        core::TimingCache cache;
        if (!args.timing_cache.empty()) {
            cache = core::TimingCache::load(args.timing_cache);
            cfg.timing_cache = &cache;
            say("[edgertexec] timing cache %s: %zu entries "
                        "loaded\n",
                        args.timing_cache.c_str(), cache.size());
        }

        core::BuildReport report;
        engine = core::Builder(dev, cfg).build(net, &report);

        if (cfg.timing_cache) {
            auto cs = cache.stats();
            cache.save(args.timing_cache);
            say("[edgertexec] timing cache: %llu hits, "
                        "%llu misses, %llu new entries (%zu total) "
                        "written to %s\n",
                        static_cast<unsigned long long>(cs.hits),
                        static_cast<unsigned long long>(cs.misses),
                        static_cast<unsigned long long>(cs.inserts),
                        cache.size(), args.timing_cache.c_str());
        }
        const auto &w = report.workload;
        say("[edgertexec] tactic sweep: %lld timings "
                    "(%lld cache hits, %lld shared), %.3f s modeled "
                    "device time (%.3f s across %d jobs)\n",
                    static_cast<long long>(w.measurements),
                    static_cast<long long>(w.cache_hits),
                    static_cast<long long>(w.shared),
                    w.serialSeconds(), w.makespanSeconds(w.jobs),
                    w.jobs);
        say("[edgertexec] built engine on %s: %zu steps, "
                    "%lld kernels, %.2f MiB plan, fingerprint "
                    "%016llx\n",
                    dev.name.c_str(), engine.steps().size(),
                    static_cast<long long>(engine.kernelCount()),
                    static_cast<double>(engine.planSizeBytes()) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(
                        engine.fingerprint()));
        say("[edgertexec] optimizer: %d dead removed, %d "
                    "no-ops elided, %d fused, %d merges\n",
                    report.optimizer.dead_layers_removed,
                    report.optimizer.noops_elided,
                    report.optimizer.layers_fused,
                    report.optimizer.horizontal_merges);
        if (args.verbose_build)
            for (const auto &t : report.tuning)
                std::printf("  %-18s -> %s (%.3f ms, runner-up "
                            "%.3f)\n",
                            t.node_name.c_str(),
                            t.chosen_tactic.c_str(), t.best_ms,
                            t.runner_up_ms);
    }

    if (!args.save_engine.empty()) {
        auto bytes = engine.serialize();
        std::ofstream f(args.save_engine, std::ios::binary);
        if (!f)
            fatal("cannot write '", args.save_engine, "'");
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        say("[edgertexec] plan written to %s (%zu bytes)\n",
                    args.save_engine.c_str(), bytes.size());
    }

    // --- Optional timeline dump (one traced inference) ---
    if (!args.dump_trace.empty() || args.trace_build) {
        std::string trace_path = args.dump_trace.empty()
                                     ? "trace.json"
                                     : args.dump_trace;
        gpusim::GpuSim sim(dev);
        runtime::ExecutionContext ctx(engine, sim, 0);
        ctx.enqueueWeightUpload();
        ctx.enqueueInference();
        sim.run();
        if (args.trace_build) {
            profile::saveMergedChromeTrace(
                trace_path, obs::Tracer::global().spans(),
                sim.trace(), dev.name);
        } else {
            profile::saveChromeTrace(trace_path, sim.trace(),
                                     dev.name);
        }
        say("[edgertexec] timeline written to %s (open in "
                    "chrome://tracing)\n",
                    trace_path.c_str());
    }

    // --- Measure ---
    if (args.threads > 0) {
        runtime::ThroughputOptions topt;
        topt.threads = args.threads;
        topt.at_max_clock = true;
        auto r = runtime::measureThroughput(engine, dev, topt);
        say("[edgertexec] throughput: %.1f FPS aggregate "
                    "(%.2f per stream), GPU util %.1f%%, copy "
                    "engine %.1f%%\n",
                    r.aggregate_fps, r.per_thread_fps,
                    r.gpu_util_pct, r.copy_busy_pct);
    } else {
        runtime::LatencyOptions lopt;
        lopt.runs = args.runs;
        lopt.with_profiler = !args.no_nvprof_overhead;
        if (args.profile) {
            std::vector<runtime::KernelProfile> kernels;
            auto lat =
                runtime::profileLatency(engine, dev, kernels, lopt);
            say("[edgertexec] latency: %.3f ms (std %.3f), "
                        "memcpy %.3f ms, kernels %.3f ms\n",
                        lat.mean_ms, lat.std_ms, lat.memcpy_mean_ms,
                        lat.kernel_mean_ms);
            std::printf("%-62s %6s %10s %10s\n", "kernel", "calls",
                        "mean ms", "total ms");
            for (const auto &k : kernels)
                std::printf("%-62s %6d %10.4f %10.4f\n",
                            k.name.c_str(), k.calls, k.mean_ms,
                            k.total_ms);
        } else {
            auto lat = runtime::measureLatency(engine, dev, lopt);
            say("[edgertexec] latency on %s @ %.0f MHz: "
                        "%.3f ms (std %.3f) | memcpy %.3f | kernels "
                        "%.3f\n",
                        dev.name.c_str(), dev.gpu_clock_ghz * 1e3,
                        lat.mean_ms, lat.std_ms, lat.memcpy_mean_ms,
                        lat.kernel_mean_ms);
        }
    }

    if (!args.metrics_out.empty()) {
        if (args.metrics_format == "prom")
            obs::MetricRegistry::global().savePromText(
                args.metrics_out);
        else
            obs::MetricRegistry::global().save(args.metrics_out);
        say("[edgertexec] metrics written to %s (%s)\n",
            args.metrics_out.c_str(), args.metrics_format.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the diagnostic through the log
    // sink; a corrupt plan file or bad flag must exit non-zero, not
    // abort or escape as an uncaught exception.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}

/**
 * @file
 * edgertstream — EdgeStream from the command line: serve continuous
 * camera streams through the staged decode → preprocess → infer →
 * postprocess pipeline on a simulated Jetson fleet and report
 * per-stream freshness.
 *
 * Examples:
 *   edgertstream --model=tiny-yolov3 --streams=4 --fps=30
 *   edgertstream --model=tiny-yolov3@int8:streams=8:fps=30 \
 *                --policy=skip_to_latest --devices=nx,agx \
 *                --duration-s=10 --report-out=stream.json
 *   edgertstream --model=resnet-18:fps=15:stale_ms=80 \
 *                --watch-out=freshness.json --metrics-format=prom \
 *                --metrics-out=metrics.prom
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "serve/cli.hh"
#include "stream/stream.hh"

using namespace edgert;

namespace {

struct Args
{
    stream::StreamConfig cfg;
    serve::OutputFlags out;
};

void
usage()
{
    std::printf(
        "usage: edgertstream [options]\n"
        "  --model <spec>        stream a model; repeatable. Spec:\n"
        "                        name[@fp16|@int8|@mixed]\n"
        "                        [:streams=N][:fps=N]\n"
        "                        [:policy=drop_oldest|"
        "skip_to_latest|block]\n"
        "                        [:budget=N][:stale_ms=N]\n"
        "                        [:arrival=fixed|jitter]"
        "[:jitter_pct=N]\n"
        "                        [:decode_ms=N][:preprocess_ms=N]\n"
        "                        [:postprocess_ms=N]"
        "[:stage_jitter_pct=N]\n"
        "%s"
        "  --streams <n>         default camera streams per model\n"
        "                        (default 4)\n"
        "  --fps <n>             default per-stream frame rate\n"
        "                        (default 30)\n"
        "  --policy <p>          default backpressure policy\n"
        "                        (default drop_oldest)\n"
        "  --devices nx,agx      simulated fleet (default nx)\n"
        "  --duration-s <n>      camera window in seconds "
        "(default 5)\n"
        "  --seed <n>            frame/stage seed (default 1)\n"
        "  --ram-fraction <f>    device RAM share for contexts "
        "(default 0.5)\n"
        "  --watch-out <f>       write the per-stream freshness\n"
        "                        burn-rate report here\n"
        "  --stale-alert-pct <x> freshness objective for the\n"
        "                        burn-rate alerts, percent "
        "(default 99)\n"
        "%s%s",
        serve::kEngineKeysHelp, serve::kTraceFlagsHelp,
        serve::kOutputFlagsHelp);
}

std::optional<Args>
parse(int argc, char **argv)
{
    Args a;
    // A --dump-trace timeline defaults to the thinned trace (the
    // library default is full); the mode never reaches a report.
    a.cfg.trace_mode = gpusim::TraceMode::kSampled;
    a.cfg.devices = serve::parseDevices("nx");
    stream::StreamModelConfig defaults;
    std::vector<std::string> model_specs;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--model"))
            model_specs.push_back(flags.value());
        else if (flags.is("--streams"))
            defaults.streams = flags.positiveValue();
        else if (flags.is("--fps"))
            defaults.fps = flags.numberValue();
        else if (flags.is("--policy"))
            defaults.policy =
                stream::parseBackpressurePolicy(flags.value());
        else if (flags.is("--devices"))
            a.cfg.devices = serve::parseDevices(flags.value());
        else if (serve::parseRunFlag(flags, a.cfg) ||
                 serve::parseTraceFlag(flags, a.cfg) ||
                 a.out.parse(flags))
            continue;
        else if (flags.is("--watch-out"))
            a.cfg.freshness_out = flags.value();
        else if (flags.is("--stale-alert-pct")) {
            double pct = flags.numberValue();
            if (pct <= 0.0 || pct >= 100.0)
                fatal("invalid value '", pct,
                      "' for --stale-alert-pct: must be in "
                      "(0, 100)");
            a.cfg.freshness_objective_pct = pct;
        } else {
            serve::endFlags(flags, usage);
            return std::nullopt;
        }
    }
    for (const auto &spec : model_specs)
        a.cfg.models.push_back(stream::parseModelSpec(spec, defaults));
    return a;
}

int
run(int argc, char **argv)
{
    auto parsed = parse(argc, argv);
    if (!parsed)
        return 0;
    Args args = *parsed;
    if (args.cfg.models.empty()) {
        usage();
        fatal("at least one --model is required");
    }

    say("[edgertstream] %zu model(s) on %zu device(s), %.1f s "
        "camera window, seed %llu\n",
        args.cfg.models.size(), args.cfg.devices.size(),
        args.cfg.duration_s,
        static_cast<unsigned long long>(args.cfg.seed));

    stream::StreamReport report = stream::runStreams(args.cfg);

    for (const auto &m : report.models) {
        say("[edgertstream] %-18s %d stream(s) @ %.1f fps (%s, "
            "%s, %s) | produced %lld | completed %lld | dropped "
            "%lld | in flight %lld | stale %.1f%% | age p99 %.2f "
            "ms (budget %.0f ms) | mean batch %.2f%s\n",
            m.model.c_str(), m.streams, m.fps, m.precision.c_str(),
            m.policy.c_str(), m.arrival.c_str(),
            static_cast<long long>(m.freshness.produced),
            static_cast<long long>(m.freshness.completed),
            static_cast<long long>(m.freshness.dropped),
            static_cast<long long>(m.freshness.in_flight),
            m.freshness.stale_rate_pct, m.freshness.age_p99_ms,
            m.stale_ms, m.mean_batch,
            m.conserved ? "" : " | CONSERVATION VIOLATED");
        say("[edgertstream] %-18s stage means: decode %.2f | "
            "preprocess %.2f | queue %.2f | dispatch %.2f | "
            "upload %.2f | compute %.2f | download %.2f | "
            "postprocess %.2f ms\n",
            m.model.c_str(), m.decode_mean_ms, m.preprocess_mean_ms,
            m.infer_mean_ms.queue, m.infer_mean_ms.dispatch_wait,
            m.infer_mean_ms.upload, m.infer_mean_ms.compute,
            m.infer_mean_ms.download,
            m.postprocess_mean_ms);
    }
    for (const auto &d : report.devices)
        say("[edgertstream] device %-12s %d instance(s) | GPU util "
            "%.1f%% | copy %.1f%% | drained at %.2f s | ctx RAM "
            "%.1f / %.1f MiB\n",
            d.device.c_str(), d.instances, d.sm_util_pct,
            d.copy_busy_pct, d.makespan_s,
            static_cast<double>(d.ram_used_bytes) /
                (1024.0 * 1024.0),
            static_cast<double>(d.ram_budget_bytes) /
                (1024.0 * 1024.0));
    say("[edgertstream] freshness alerts: %lld page / %lld warn / "
        "%lld clear%s%s\n",
        static_cast<long long>(report.freshness.pages),
        static_cast<long long>(report.freshness.warns),
        static_cast<long long>(report.freshness.clears),
        args.cfg.freshness_out.empty() ? "" : ", report at ",
        args.cfg.freshness_out.c_str());
    if (report.freshness.first_page_s >= 0.0)
        say("[edgertstream] freshness: first page alert at "
            "%.3f s\n",
            report.freshness.first_page_s);

    args.out.write("edgertstream", report.toJson(), args.cfg.trace_out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(run, argc, argv);
}

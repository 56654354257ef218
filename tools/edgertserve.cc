/**
 * @file
 * edgertserve — EdgeServe from the command line: run a Triton-style
 * serving scenario on a simulated Jetson fleet and report per-model
 * SLO attainment.
 *
 * Examples:
 *   edgertserve --model=resnet-18:qps=800:slo_ms=15 --devices=nx
 *   edgertserve --model=resnet-18:qps=400:slo_ms=15 \
 *               --model=tiny-yolov3:qps=200:slo_ms=25:arrival=bursty \
 *               --devices=nx,agx --duration-s=30 \
 *               --report-out=serve.json --metrics-out=metrics.json
 *   edgertserve --model=googlenet:qps=300:slo_ms=20:max_batch=16 \
 *               --no-admission --dump-trace=serve_trace.json
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "deploy/hotswap.hh"
#include "serve/cli.hh"
#include "serve/server.hh"

using namespace edgert;

namespace {

/** Parse a <model>[:count] fault spec (default count 1). */
void
parseFailSpec(const char *flag, const std::string &spec,
              std::map<std::string, int> &out)
{
    auto parts = split(spec, ':');
    if (parts.empty() || parts[0].empty())
        fatal("empty ", flag, " spec");
    int count = 1;
    if (parts.size() > 1) {
        auto r = parseInt64(parts[1]);
        if (!r.ok() || *r < 1)
            fatal("bad ", flag, " count '", parts[1],
                  "' (expected a positive integer)");
        count = static_cast<int>(*r);
    }
    if (parts.size() > 2)
        fatal("bad ", flag, " spec '", spec,
              "' (expected model[:count])");
    out[parts[0]] += count;
}

struct Args
{
    serve::ServeConfig cfg;
    serve::OutputFlags out;

    // Engine-lifecycle (EdgeDeploy) options.
    std::string repo;             //!< repository root ("" = off)
    double rebuild_at_s = -1.0;   //!< swap trigger (<0: mid-run)
    std::uint64_t rebuild_seed = 0; //!< 0: cfg.build_id + 1
    double drift_gate_pct = -1.0; //!< <0: gate default

    /** Candidate precision for a cross-precision hot-swap ("" =
     *  keep each model's serving precision). */
    std::string rebuild_precision;
    std::uint64_t rebuild_calib_seed = 0;
};

void
usage()
{
    std::printf(
        "usage: edgertserve [options]\n"
        "  --model <spec>        serve a model; repeatable. Spec:\n"
        "                        name[@fp16|@int8|@mixed]\n"
        "%s%s"
        "  --devices nx,agx      simulated fleet (default nx)\n"
        "  --duration-s <n>      simulated serving window "
        "(default 10)\n"
        "  --seed <n>            workload seed (default 1)\n"
        "  --no-admission        disable SLO-aware admission "
        "control\n"
        "  --no-batching         disable the dynamic batcher "
        "(FIFO,\n"
        "                        batch 1)\n"
        "  --ram-fraction <f>    device RAM share for contexts "
        "(default 0.5)\n"
        "  --fail-load <m[:n]>   inject n engine-load failures for\n"
        "                        model m (default 1); repeatable\n"
        "  --fail-swap-load <m[:n]>\n"
        "                        inject n *swap-time* candidate "
        "load\n"
        "                        failures for model m; repeatable\n"
        "  --load-attempts <n>   load tries per (model, device)\n"
        "                        before degrading (default 2)\n"
        "  --repo <dir>          engine repository root; enables "
        "the\n"
        "                        drift-gated mid-run hot-swap\n"
        "  --rebuild-at <t>      swap trigger time in seconds\n"
        "                        (default: half the duration)\n"
        "  --rebuild-seed <n>    candidate builder seed (default:\n"
        "                        incumbent seed + 1)\n"
        "  --rebuild-precision <p>\n"
        "                        build swap candidates at this\n"
        "                        precision (fp16|int8|mixed) —\n"
        "                        a cross-precision promotion gated\n"
        "                        against the serving lineage\n"
        "  --rebuild-calib-seed <n>\n"
        "                        calibration batch of int8/mixed\n"
        "                        swap candidates (default 0)\n"
        "  --drift-gate-pct <x>  max tolerated canary top-1\n"
        "                        disagreement, percent "
        "(default 0.4)\n"
        "  --watch-out <f>       enable EdgeWatch; write the watch\n"
        "                        report here (incidents land next "
        "to\n"
        "                        it as <f minus .json>.NNN-"
        "<reason>.json)\n"
        "  --slo-alert-pct <x>   SLO objective for the burn-rate\n"
        "                        alerts, percent (default 99)\n"
        "  --flight-recorder-depth <n>\n"
        "                        flight-recorder ring size "
        "(default 256)\n"
        "%s%s",
        serve::kTrafficKeysHelp, serve::kEngineKeysHelp,
        serve::kTraceFlagsHelp, serve::kOutputFlagsHelp);
}

std::optional<Args>
parse(int argc, char **argv)
{
    Args a;
    // The CLI is interactive tooling, not a byte-reproducibility
    // fixture: default to the thinned trace (the library default
    // stays full so canonical reports keep their bytes).
    a.cfg.trace_mode = gpusim::TraceMode::kSampled;
    a.cfg.devices = serve::parseDevices("nx");
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--model"))
            a.cfg.models.push_back(
                serve::parseModelSpec(flags.value()));
        else if (flags.is("--devices"))
            a.cfg.devices = serve::parseDevices(flags.value());
        else if (flags.is("--no-admission"))
            a.cfg.admission_control = false;
        else if (flags.is("--no-batching"))
            a.cfg.dynamic_batching = false;
        else if (flags.is("--fail-load"))
            parseFailSpec("--fail-load", flags.value(),
                          a.cfg.faults.engine_load_failures);
        else if (flags.is("--fail-swap-load"))
            parseFailSpec("--fail-swap-load", flags.value(),
                          a.cfg.faults.swap_load_failures);
        else if (flags.is("--load-attempts"))
            a.cfg.faults.max_load_attempts = flags.positiveValue();
        else if (flags.is("--repo"))
            a.repo = flags.value();
        else if (flags.is("--rebuild-at"))
            a.rebuild_at_s = flags.numberValue();
        else if (flags.is("--rebuild-seed"))
            a.rebuild_seed = flags.unsignedValue();
        else if (flags.is("--rebuild-precision"))
            a.rebuild_precision = flags.value();
        else if (flags.is("--rebuild-calib-seed"))
            a.rebuild_calib_seed = flags.unsignedValue();
        else if (flags.is("--drift-gate-pct"))
            a.drift_gate_pct = flags.numberValue();
        else if (serve::parseRunFlag(flags, a.cfg) ||
                 serve::parseTraceFlag(flags, a.cfg) ||
                 a.out.parse(flags))
            continue;
        else if (flags.is("--watch-out")) {
            std::string f = flags.value();
            a.cfg.watch.enabled = true;
            a.cfg.watch.out_path = f;
            std::string stem = f;
            const std::string ext = ".json";
            if (stem.size() > ext.size() &&
                stem.compare(stem.size() - ext.size(), ext.size(),
                             ext) == 0)
                stem.resize(stem.size() - ext.size());
            a.cfg.watch.incident_prefix = stem + ".";
        } else if (flags.is("--slo-alert-pct")) {
            double pct = flags.numberValue();
            if (pct <= 0.0 || pct >= 100.0)
                fatal("invalid value '", pct,
                      "' for --slo-alert-pct: must be in (0, 100)");
            a.cfg.watch.slo_objective_pct = pct;
        } else if (flags.is("--flight-recorder-depth"))
            a.cfg.watch.flight_recorder_depth = flags.positiveValue();
        else {
            serve::endFlags(flags, usage);
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
    if (args.cfg.models.empty()) {
        usage();
        fatal("at least one --model is required");
    }

    say("[edgertserve] %zu model(s) on %zu device(s), %.1f s "
        "window, seed %llu, admission %s, batching %s\n",
        args.cfg.models.size(), args.cfg.devices.size(),
        args.cfg.duration_s,
        static_cast<unsigned long long>(args.cfg.seed),
        args.cfg.admission_control ? "on" : "off",
        args.cfg.dynamic_batching ? "on" : "off");

    serve::ServeReport report;
    if (args.repo.empty()) {
        report = serve::runServer(args.cfg);
    } else {
        deploy::EngineRepository repo(args.repo);
        deploy::DriftGateConfig gate_cfg;
        if (args.drift_gate_pct >= 0.0)
            gate_cfg.max_disagreement_pct = args.drift_gate_pct;
        deploy::HotSwapper swapper(repo, gate_cfg);
        double t_s = args.rebuild_at_s >= 0.0
                         ? args.rebuild_at_s
                         : args.cfg.duration_s / 2.0;
        std::uint64_t seed = args.rebuild_seed
                                 ? args.rebuild_seed
                                 : args.cfg.build_id + 1;
        std::optional<nn::Precision> cand_precision;
        if (!args.rebuild_precision.empty())
            cand_precision =
                nn::parsePrecisionName(args.rebuild_precision);
        deploy::HotSwapPlan plan =
            swapper.planSwaps(args.cfg, t_s, seed, 1,
                              cand_precision,
                              args.rebuild_calib_seed);
        for (const auto &o : plan.outcomes) {
            if (!o.status.ok())
                say("[edgertserve] %-18s rebuild failed: %s\n",
                    o.job.model.c_str(),
                    o.status.message().c_str());
            else if (o.promoted)
                say("[edgertserve] %-18s candidate v%d promoted "
                    "(drift %.3f%%), swap at %.2f s\n",
                    o.job.model.c_str(), o.version,
                    o.verdict.disagreement_pct, t_s);
            else
                say("[edgertserve] %-18s candidate v%d "
                    "quarantined: %s\n",
                    o.job.model.c_str(), o.version,
                    o.verdict.detail.c_str());
        }
        report = swapper.runWithSwaps(args.cfg, plan);
    }

    for (const auto &m : report.models) {
        say("[edgertserve] %-18s offered %.1f qps | goodput %.1f "
            "qps | shed %lld | p50 %.2f ms | p99 %.2f ms | SLO "
            "%.1f ms | violations %lld | mean batch %.2f%s\n",
            m.model.c_str(), m.offered_qps, m.goodput_qps,
            static_cast<long long>(m.shed), m.p50_ms, m.p99_ms,
            m.slo_ms, static_cast<long long>(m.slo_violations),
            m.mean_batch, m.degraded ? " | DEGRADED" : "");
        if (m.load_failures > 0)
            say("[edgertserve] %-18s engine-load failures %lld | "
                "rebuilds %lld\n",
                m.model.c_str(),
                static_cast<long long>(m.load_failures),
                static_cast<long long>(m.rebuilds));
        if (m.swaps > 0)
            say("[edgertserve] %-18s swaps %lld (rolled back "
                "%lld%s%s) | active build %llu | pause %.2f ms | "
                "p99 in-swap %.2f ms vs steady %.2f ms\n",
                m.model.c_str(), static_cast<long long>(m.swaps),
                static_cast<long long>(m.swaps_rolled_back),
                m.swap_rollback_reason.empty() ? "" : ": ",
                m.swap_rollback_reason.c_str(),
                static_cast<unsigned long long>(m.active_build_id),
                m.swap_downtime_ms, m.p99_swap_ms,
                m.p99_steady_ms);
    }
    for (const auto &d : report.devices)
        say("[edgertserve] device %-12s %d instance(s) | GPU util "
            "%.1f%% | copy %.1f%% | drained at %.2f s | ctx RAM "
            "%.1f / %.1f MiB\n",
            d.device.c_str(), d.instances, d.sm_util_pct,
            d.copy_busy_pct, d.makespan_s,
            static_cast<double>(d.ram_used_bytes) /
                (1024.0 * 1024.0),
            static_cast<double>(d.ram_budget_bytes) /
                (1024.0 * 1024.0));

    if (report.watch.enabled) {
        say("[edgertserve] watch: %lld page / %lld warn alert(s), "
            "%lld anomaly(ies), %lld incident(s)%s%s\n",
            static_cast<long long>(report.watch.alert_counts.pages),
            static_cast<long long>(report.watch.alert_counts.warns),
            static_cast<long long>(report.watch.anomalies),
            static_cast<long long>(report.watch.incidents),
            args.cfg.watch.out_path.empty() ? "" : ", report at ",
            args.cfg.watch.out_path.c_str());
        if (report.watch.alert_counts.first_page_s >= 0.0)
            say("[edgertserve] watch: first page alert at %.3f s\n",
                report.watch.alert_counts.first_page_s);
    }
    args.out.write("edgertserve", report.toJson(), args.cfg.trace_out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(run, argc, argv);
}

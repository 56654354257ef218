/**
 * @file
 * edgertfleet — EdgeFleet from the command line: route a fleet-wide
 * workload across hundreds of simulated Jetson nodes and report
 * per-model SLO attainment, membership events and rollout outcomes.
 *
 * Examples:
 *   edgertfleet --nodes=nx:96 --nodes=agx:24 \
 *               --model=resnet-18:qps=50000:slo_ms=50
 *   edgertfleet --nodes=nx:400 --nodes=agx:80 \
 *               --nodes=nx:20:clock=0.6:name=straggler \
 *               --model=resnet-18:qps=100000:slo_ms=50:nodes_pct=60 \
 *               --route=sojourn --placement=calibrated \
 *               --fail=17:2.0:rejoin=5.0 \
 *               --rollout=resnet-18:build=2:stages=1@3,10@5,100@7 \
 *               --sim-threads=8 --report-out=fleet.json
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "fleet/fleet.hh"
#include "serve/cli.hh"

using namespace edgert;

namespace {

/** Parse a --fail spec: <node>:<t_s>[:rejoin=<t_s>]. */
fleet::FailureSpec
parseFailure(const std::string &spec)
{
    auto parts = split(spec, ':');
    if (parts.size() < 2)
        fatal("bad --fail spec '", spec,
              "' (expected node:t[:rejoin=t])");
    fleet::FailureSpec f;
    f.node = optionInt("fail node", parts[0]);
    f.fail_s = optionNumber("fail time", parts[1]);
    for (std::size_t i = 2; i < parts.size(); i++) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos ||
            parts[i].substr(0, eq) != "rejoin")
            fatal("bad --fail option '", parts[i],
                  "' (expected rejoin=t)");
        f.rejoin_s = optionNumber("rejoin", parts[i].substr(eq + 1));
    }
    return f;
}

/**
 * Parse a --rollout spec:
 *   <model>[:build=<id>][:gate_pct=<x>]:stages=<pct>@<t>[,...]
 */
fleet::RolloutSpec
parseRollout(const std::string &spec)
{
    auto parts = split(spec, ':');
    if (parts.empty() || parts[0].empty())
        fatal("empty --rollout spec");
    fleet::RolloutSpec ro;
    ro.model = parts[0];
    for (std::size_t i = 1; i < parts.size(); i++) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos)
            fatal("bad --rollout option '", parts[i],
                  "' (expected key=value)");
        std::string k = parts[i].substr(0, eq);
        std::string v = parts[i].substr(eq + 1);
        if (k == "build")
            ro.candidate_build_id = optionUnsigned(k, v);
        else if (k == "gate_pct")
            ro.gate.max_disagreement_pct = optionNumber(k, v);
        else if (k == "stages") {
            for (const auto &st : split(v, ',')) {
                auto at = st.find('@');
                if (at == std::string::npos)
                    fatal("bad --rollout stage '", st,
                          "' (expected pct@t)");
                fleet::RolloutStage s;
                s.pct = optionNumber("stage pct", st.substr(0, at));
                s.t_s = optionNumber("stage time", st.substr(at + 1));
                ro.stages.push_back(s);
            }
        } else
            fatal("unknown --rollout option '", k, "'");
    }
    if (ro.stages.empty())
        fatal("--rollout '", spec, "' needs stages=pct@t[,...]");
    return ro;
}

struct Args
{
    fleet::FleetConfig cfg;
    serve::OutputFlags out;
};

void
usage()
{
    std::printf(
        "usage: edgertfleet [options]\n"
        "  --nodes <spec>        add a node pool; repeatable. "
        "Spec:\n"
        "                        device:count[:clock=ghz]"
        "[:name=str]\n"
        "                        e.g. nx:96, agx:24, "
        "nx:8:clock=0.6:name=straggler\n"
        "  --model <spec>        serve a model fleet-wide; "
        "repeatable.\n"
        "                        name[@fp16|@int8|@mixed]"
        "[:nodes_pct=N]\n"
        "%s%s"
        "                        — qps is the aggregate fleet-wide\n"
        "                        rate, instances are per node\n"
        "  --route <p>           routing policy: hash (default) | "
        "sojourn\n"
        "  --placement <p>       engine placement: calibrated "
        "(default,\n"
        "                        measured per-class latency) | "
        "capability\n"
        "                        (peak-FLOPS order)\n"
        "  --vnodes <n>          ring points per node (default "
        "128)\n"
        "  --choices <n>         sojourn candidates per request "
        "(default 4)\n"
        "  --duration-s <n>      simulated window (default 10)\n"
        "  --seed <n>            workload seed (default 1)\n"
        "  --no-admission        disable SLO-aware admission "
        "control\n"
        "  --no-quarantine       keep paging nodes in the rings\n"
        "  --ram-fraction <f>    node RAM share for contexts "
        "(default 0.5)\n"
        "  --fail <spec>         drain a node mid-run; "
        "repeatable.\n"
        "                        node:t[:rejoin=t]\n"
        "  --rollout <spec>      staged rollout; repeatable.\n"
        "                        model[:build=id][:gate_pct=x]"
        ":stages=pct@t[,...]\n"
        "%s",
        serve::kTrafficKeysHelp, serve::kEngineKeysHelp,
        serve::kOutputFlagsHelp);
}

std::optional<Args>
parse(int argc, char **argv)
{
    Args a;
    FlagParser flags(argc, argv);
    while (flags.next()) {
        if (flags.is("--nodes"))
            a.cfg.groups.push_back(
                fleet::parseNodeGroup(flags.value()));
        else if (flags.is("--model"))
            a.cfg.models.push_back(
                fleet::parseModelSpec(flags.value()));
        else if (flags.is("--route"))
            a.cfg.route_policy =
                fleet::parseRoutePolicy(flags.value());
        else if (flags.is("--placement"))
            a.cfg.placement =
                fleet::parsePlacementPolicy(flags.value());
        else if (flags.is("--vnodes"))
            a.cfg.vnodes = static_cast<int>(flags.unsignedValue());
        else if (flags.is("--choices"))
            a.cfg.sojourn_choices =
                static_cast<int>(flags.unsignedValue());
        else if (flags.is("--no-admission"))
            a.cfg.admission_control = false;
        else if (flags.is("--no-quarantine"))
            a.cfg.quarantine_on_page = false;
        else if (flags.is("--fail"))
            a.cfg.failures.push_back(parseFailure(flags.value()));
        else if (flags.is("--rollout"))
            a.cfg.rollouts.push_back(parseRollout(flags.value()));
        else if (serve::parseRunFlag(flags, a.cfg) ||
                 a.out.parse(flags))
            continue;
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
    if (args.cfg.groups.empty()) {
        usage();
        fatal("at least one --nodes pool is required");
    }
    if (args.cfg.models.empty()) {
        usage();
        fatal("at least one --model is required");
    }

    int n_nodes = 0;
    for (const auto &g : args.cfg.groups)
        n_nodes += g.count;
    say("[edgertfleet] %d node(s) in %zu pool(s), %zu model(s), "
        "%.1f s window, seed %llu, route %s, placement %s\n",
        n_nodes, args.cfg.groups.size(), args.cfg.models.size(),
        args.cfg.duration_s,
        static_cast<unsigned long long>(args.cfg.seed),
        fleet::routePolicyName(args.cfg.route_policy),
        fleet::placementPolicyName(args.cfg.placement));

    fleet::FleetReport report = fleet::runFleet(args.cfg);

    for (const auto &m : report.models) {
        say("[edgertfleet] %-18s %d node(s) | offered %.0f qps | "
            "goodput %.0f qps | shed %lld | p50 %.2f ms | p99 "
            "%.2f ms | SLO %.1f ms | attainment %.2f%%\n",
            m.model.c_str(), m.serving_nodes, m.offered_qps,
            m.goodput_qps, static_cast<long long>(m.shed),
            m.p50_ms, m.p99_ms, m.slo_ms, m.attainment_pct);
    }
    for (const auto &g : report.groups)
        say("[edgertfleet] pool %-12s (%s) %d node(s) | "
            "quarantined %d | failed %d | completed %lld | p99 "
            "%.2f ms\n",
            g.group.c_str(), g.dev_class.c_str(), g.nodes,
            g.quarantined, g.failed,
            static_cast<long long>(g.completed), g.p99_ms);
    for (const auto &e : report.events)
        say("[edgertfleet] t=%.3f s %s %s%s%s | rerouted %lld | "
            "remapped %.2f%% of key space\n",
            e.t_s, e.kind.c_str(), e.node_name.c_str(),
            e.reason.empty() ? "" : ": ", e.reason.c_str(),
            static_cast<long long>(e.rerouted), e.remap_pct);
    for (const auto &ro : report.rollouts) {
        say("[edgertfleet] rollout %-12s build %llu %s\n",
            ro.model.c_str(),
            static_cast<unsigned long long>(
                ro.candidate_build_id),
            ro.halted ? "HALTED (canary absorbed the bad build)"
                      : "completed");
        for (const auto &v : ro.verdicts)
            say("[edgertfleet]   class %-10s %s (drift %.3f%%, "
                "kernel remap %.1f%%)%s%s\n",
                v.dev_class.c_str(),
                v.accepted ? "accepted" : "REJECTED",
                v.disagreement_pct, v.kernel_remap_pct,
                v.reason.empty() ? "" : ": ", v.reason.c_str());
        for (const auto &s : ro.stages)
            say("[edgertfleet]   stage %.0f%% at t=%.1f s: %s, "
                "cohort %d, switched %d, quarantined %d\n",
                s.pct, s.t_s,
                s.executed ? "executed" : "skipped", s.cohort,
                s.switched, s.quarantined);
    }
    if (report.alerts.pages + report.alerts.warns > 0)
        say("[edgertfleet] alerts: %lld page / %lld warn / %lld "
            "clear; first page at %.3f s\n",
            static_cast<long long>(report.alerts.pages),
            static_cast<long long>(report.alerts.warns),
            static_cast<long long>(report.alerts.clears),
            report.alerts.first_page_s);
    say("[edgertfleet] fleet: offered %lld (%.0f qps aggregate) | "
        "completed %lld | shed %lld | unaccounted %lld | p99 "
        "%.2f ms\n",
        static_cast<long long>(report.offered),
        report.aggregate_offered_qps,
        static_cast<long long>(report.completed),
        static_cast<long long>(report.shed),
        static_cast<long long>(report.unaccounted), report.p99_ms);

    args.out.write("edgertfleet", report.toJson());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(run, argc, argv);
}

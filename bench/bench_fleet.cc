/**
 * @file
 * EdgeFleet benchmark: cluster-scale serving on a simulated
 * heterogeneous Jetson fleet.
 *
 * Six studies, all pure functions of (config, seed):
 *
 *  - scale: a 500-node NX/AGX fleet (plus throttled stragglers)
 *    serving resnet-18 at a six-figure aggregate request rate under
 *    least-predicted-sojourn routing. The fleet must meet the p99
 *    SLO; any miss fails the bench (the CI gate).
 *  - failover: a node is drained mid-run and later rejoins. Queued
 *    requests reroute at the drain point and every admitted request
 *    must still complete — zero dropped in-flight work — with the
 *    consistent-hash ring remapping only the failed node's share of
 *    the key space.
 *  - loaded failover: the same drain with admission off and the
 *    fleet past capacity, so the failing node is mid-batch and its
 *    queue is non-empty when it drains. Its queued requests must
 *    reroute (rerouted > 0) and offered == completed + shed must
 *    hold exactly.
 *  - placement: calibrated (measured per-(device,engine) service
 *    time) vs capability-order (nominal spec-sheet FLOPS) placement
 *    for mobilenetv1 on half the fleet. The paper's F4/F5 findings
 *    say the nominally bigger AGX is *slower* for such nets at
 *    batch 1, so calibrated placement must win on p99.
 *  - rollout: a staged 1% -> 10% -> 100% canary of a rebuilt engine
 *    through DriftGate. Classes whose candidate drifts are rejected,
 *    their cohort nodes quarantine, and the rollout halts before
 *    the bad build reaches the fleet.
 *  - determinism: the failover scenario re-run with the same seed
 *    and with a parallel replay (`sim_threads`) must produce
 *    byte-identical fleet reports.
 *
 * `--smoke` shrinks simulated durations for CI; fleet shapes, rates
 * and the JSON schema are identical. Every value in
 * BENCH_fleet.json derives from simulated time, so same-seed reruns
 * of the bench are byte-identical too.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "report.hh"

namespace {

using namespace edgert;

bool g_smoke = false;

/** 500 nodes: Table I's NX/AGX mix plus throttled stragglers. */
std::vector<fleet::NodeGroup>
bigFleet()
{
    return {fleet::parseNodeGroup("nx:400"),
            fleet::parseNodeGroup("agx:80"),
            fleet::parseNodeGroup("nx:20:clock=0.6:name=straggler")};
}

fleet::FleetConfig
baseConfig(const std::vector<fleet::NodeGroup> &groups,
           const std::string &model, double qps, double slo_ms)
{
    fleet::FleetConfig cfg;
    cfg.groups = groups;
    fleet::FleetModelConfig mc;
    mc.model = model;
    mc.arrivals.qps = qps;
    mc.slo_ms = slo_ms;
    cfg.models.push_back(mc);
    cfg.seed = 1;
    return cfg;
}

void
writeLatency(JsonWriter &w, const fleet::FleetReport &r)
{
    w.key("latency_ms").beginObject();
    w.field("mean", r.mean_ms);
    w.field("p50", r.p50_ms);
    w.field("p95", r.p95_ms);
    w.field("p99", r.p99_ms);
    w.field("max", r.max_ms);
    w.endObject();
}

void
writeTotals(JsonWriter &w, const fleet::FleetReport &r)
{
    w.field("nodes", r.nodes);
    w.field("offered", r.offered);
    w.field("completed", r.completed);
    w.field("shed", r.shed);
    w.field("unaccounted", r.unaccounted);
    w.field("aggregate_offered_qps", r.aggregate_offered_qps);
}

int
runFigures()
{
    obs::MetricRegistry::global().reset();
    std::printf("=== EdgeFleet: cluster-scale serving across a "
                "heterogeneous fleet%s ===\n",
                g_smoke ? " (smoke)" : "");
    int rc = 0;

    // ------------------------------------------------------------
    // Study 1: p99 SLO at six-figure aggregate qps on 500 nodes.
    // ------------------------------------------------------------
    const double kScaleSlo = 50.0;
    fleet::FleetConfig scale =
        baseConfig(bigFleet(), "resnet-18", 120000.0, kScaleSlo);
    scale.duration_s = g_smoke ? 1.0 : 4.0;
    scale.route_policy = fleet::RoutePolicy::kLeastSojourn;
    scale.sim_threads = 8;
    fleet::FleetReport scale_rep = fleet::runFleet(scale);
    bool scale_slo_met = scale_rep.p99_ms <= kScaleSlo &&
                         scale_rep.unaccounted == 0;
    std::printf("scale: %d nodes | %.0f qps aggregate | p50 %.2f "
                "ms | p99 %.2f ms vs SLO %.0f ms -> %s\n",
                scale_rep.nodes, scale_rep.aggregate_offered_qps,
                scale_rep.p50_ms, scale_rep.p99_ms, kScaleSlo,
                scale_slo_met ? "met" : "MISSED");
    if (!scale_slo_met) {
        std::fprintf(stderr,
                     "FAIL: 500-node fleet missed the p99 SLO "
                     "(p99 %.2f ms, SLO %.0f ms, unaccounted "
                     "%lld)\n",
                     scale_rep.p99_ms, kScaleSlo,
                     static_cast<long long>(scale_rep.unaccounted));
        rc = 1;
    }

    // ------------------------------------------------------------
    // Study 2: node failure + rejoin with zero dropped requests.
    // ------------------------------------------------------------
    std::vector<fleet::NodeGroup> small = {
        fleet::parseNodeGroup("nx:8"), fleet::parseNodeGroup("agx:4")};
    double fail_dur = g_smoke ? 3.0 : 6.0;
    fleet::FleetConfig failover =
        baseConfig(small, "resnet-18", 2000.0, 50.0);
    failover.duration_s = fail_dur;
    fleet::FailureSpec fs;
    fs.node = 3;
    fs.fail_s = fail_dur / 3.0;
    fs.rejoin_s = 2.0 * fail_dur / 3.0;
    failover.failures.push_back(fs);
    fleet::FleetReport fail_rep = fleet::runFleet(failover);
    bool zero_dropped =
        fail_rep.unaccounted == 0 &&
        fail_rep.completed + fail_rep.shed == fail_rep.offered &&
        fail_rep.events.size() == 2;
    std::printf("failover: offered %lld | completed %lld | shed "
                "%lld | unaccounted %lld | %zu membership "
                "event(s) -> %s\n",
                static_cast<long long>(fail_rep.offered),
                static_cast<long long>(fail_rep.completed),
                static_cast<long long>(fail_rep.shed),
                static_cast<long long>(fail_rep.unaccounted),
                fail_rep.events.size(),
                zero_dropped ? "zero dropped" : "DROPPED WORK");
    for (const auto &e : fail_rep.events)
        std::printf("  t=%.3f s %-10s %s: rerouted %lld, remapped "
                    "%.2f%% of key space\n",
                    e.t_s, e.kind.c_str(), e.node_name.c_str(),
                    static_cast<long long>(e.rerouted), e.remap_pct);
    if (!zero_dropped) {
        std::fprintf(stderr, "FAIL: failover scenario dropped "
                             "in-flight requests\n");
        rc = 1;
    }

    // ------------------------------------------------------------
    // Study 2b: the same drain under load. Admission is off and
    // 6000 qps is past the 12 nodes' capacity, so node 3 is busy
    // with a batch and holds a backlog when it fails: the backlog
    // reroutes and its in-flight batches still complete.
    // ------------------------------------------------------------
    fleet::FleetConfig loaded = failover;
    loaded.models[0].arrivals.qps = 6000.0;
    loaded.admission_control = false;
    loaded.quarantine_on_page = false;
    fleet::FleetReport loaded_rep = fleet::runFleet(loaded);
    const std::int64_t loaded_rerouted =
        loaded_rep.events.empty() ? 0
                                  : loaded_rep.events.front().rerouted;
    bool loaded_ok =
        loaded_rep.events.size() == 2 && loaded_rerouted > 0 &&
        loaded_rep.unaccounted == 0 &&
        loaded_rep.completed + loaded_rep.shed == loaded_rep.offered;
    std::printf("loaded failover: offered %lld | completed %lld | "
                "shed %lld | rerouted %lld at the drain | p99 %.2f "
                "ms -> %s\n",
                static_cast<long long>(loaded_rep.offered),
                static_cast<long long>(loaded_rep.completed),
                static_cast<long long>(loaded_rep.shed),
                static_cast<long long>(loaded_rerouted),
                loaded_rep.p99_ms,
                loaded_ok ? "rerouted and conserved"
                          : "NOT REROUTED OR NOT CONSERVED");
    if (!loaded_ok) {
        std::fprintf(stderr, "FAIL: loaded failover rerouted no "
                             "queued request or lost one\n");
        rc = 1;
    }

    // ------------------------------------------------------------
    // Study 3: F4/F5-aware placement vs capability order.
    // ------------------------------------------------------------
    std::vector<fleet::NodeGroup> half = {
        fleet::parseNodeGroup("nx:40"),
        fleet::parseNodeGroup("agx:40")};
    auto placementRun = [&](fleet::PlacementPolicy p) {
        fleet::FleetConfig cfg =
            baseConfig(half, "mobilenetv1", 5000.0, 20.0);
        cfg.models[0].nodes_pct = 50.0;
        cfg.duration_s = g_smoke ? 1.0 : 2.0;
        cfg.placement = p;
        // Compare the placements themselves: no quarantine, so a
        // bad placement keeps hurting p99 instead of being bailed
        // out mid-run by the watch layer.
        cfg.quarantine_on_page = false;
        return fleet::runFleet(cfg);
    };
    fleet::FleetReport cal_rep =
        placementRun(fleet::PlacementPolicy::kCalibrated);
    fleet::FleetReport cap_rep =
        placementRun(fleet::PlacementPolicy::kCapabilityOrder);
    bool calibrated_wins = cal_rep.p99_ms < cap_rep.p99_ms;
    std::printf("placement (mobilenetv1, half fleet): calibrated "
                "p99 %.2f ms [%s first] vs capability p99 %.2f ms "
                "[%s first] -> %s\n",
                cal_rep.p99_ms,
                cal_rep.models[0].placement_rank.front().c_str(),
                cap_rep.p99_ms,
                cap_rep.models[0].placement_rank.front().c_str(),
                calibrated_wins ? "calibrated wins"
                                : "CAPABILITY WINS");
    if (!calibrated_wins) {
        std::fprintf(stderr,
                     "FAIL: heterogeneity-aware placement did not "
                     "beat capability order on p99\n");
        rc = 1;
    }

    // ------------------------------------------------------------
    // Study 4: staged canary rollout with DriftGate quarantine.
    // ------------------------------------------------------------
    fleet::FleetConfig canary =
        baseConfig(small, "resnet-18", 2000.0, 50.0);
    canary.duration_s = g_smoke ? 3.0 : 6.0;
    fleet::RolloutSpec ro;
    ro.model = "resnet-18";
    ro.candidate_build_id = 2;
    double t0 = canary.duration_s / 3.0;
    ro.stages.push_back({t0, 1.0});
    ro.stages.push_back({t0 + 0.5, 10.0});
    ro.stages.push_back({t0 + 1.0, 100.0});
    canary.rollouts.push_back(ro);
    fleet::FleetReport roll_rep = fleet::runFleet(canary);
    const fleet::RolloutStats &rs = roll_rep.rollouts.front();
    bool any_rejected = false;
    for (const auto &v : rs.verdicts)
        any_rejected = any_rejected || !v.accepted;
    int quarantined = 0;
    for (const auto &st : rs.stages)
        quarantined += st.quarantined;
    // Logical consistency: a rejected class means its canary nodes
    // quarantined and the rollout halted before 100%.
    bool rollout_ok = rs.verdicts.size() == 2 &&
                      (!any_rejected ||
                       (rs.halted && quarantined > 0)) &&
                      roll_rep.unaccounted == 0;
    std::printf("rollout: build %llu %s | %zu class verdict(s), "
                "%d node(s) quarantined\n",
                static_cast<unsigned long long>(
                    rs.candidate_build_id),
                rs.halted ? "halted" : "completed",
                rs.verdicts.size(), quarantined);
    for (const auto &v : rs.verdicts)
        std::printf("  class %-4s %s (drift %.3f%%)%s%s\n",
                    v.dev_class.c_str(),
                    v.accepted ? "accepted" : "rejected",
                    v.disagreement_pct,
                    v.reason.empty() ? "" : ": ",
                    v.reason.c_str());
    if (!rollout_ok) {
        std::fprintf(stderr, "FAIL: rollout bookkeeping "
                             "inconsistent\n");
        rc = 1;
    }

    // ------------------------------------------------------------
    // Study 5: byte-identity — same seed, serial vs parallel.
    // ------------------------------------------------------------
    std::string serial = fail_rep.toJson();
    std::string rerun = fleet::runFleet(failover).toJson();
    fleet::FleetConfig par_cfg = failover;
    par_cfg.sim_threads = 8;
    std::string parallel = fleet::runFleet(par_cfg).toJson();
    bool same_seed_identical = serial == rerun;
    bool serial_equals_parallel = serial == parallel;
    std::printf("determinism: same-seed rerun %s, serial vs "
                "sim_threads=8 %s\n",
                same_seed_identical ? "byte-identical" : "DIFFERS",
                serial_equals_parallel ? "byte-identical"
                                       : "DIFFERS");
    if (!same_seed_identical || !serial_equals_parallel) {
        std::fprintf(stderr, "FAIL: fleet reports are not "
                             "byte-identical\n");
        rc = 1;
    }

    bench::saveBenchReport(
        "BENCH_fleet.json", "bench_fleet",
        [&](JsonWriter &w) {
            w.field("smoke", g_smoke);
            w.key("scale").beginObject();
            w.field("model", "resnet-18");
            w.field("route_policy", scale_rep.route_policy);
            w.field("slo_ms", kScaleSlo);
            writeTotals(w, scale_rep);
            writeLatency(w, scale_rep);
            w.field("slo_met", scale_slo_met);
            w.key("classes").beginArray();
            for (const auto &c : scale_rep.classes) {
                w.beginObject();
                w.field("label", c.label);
                w.field("nodes", c.nodes);
                w.field("svc1_ms", c.svc1_ms.front());
                w.endObject();
            }
            w.endArray();
            w.endObject();

            w.key("failover").beginObject();
            writeTotals(w, fail_rep);
            w.field("zero_dropped", zero_dropped);
            w.key("events").beginArray();
            for (const auto &e : fail_rep.events) {
                w.beginObject();
                w.field("t_s", e.t_s);
                w.field("kind", e.kind);
                w.field("node", e.node_name);
                w.field("rerouted", e.rerouted);
                w.field("remap_pct", e.remap_pct);
                w.endObject();
            }
            w.endArray();
            w.endObject();

            w.key("loaded_failover").beginObject();
            w.field("qps", loaded.models[0].arrivals.qps);
            writeTotals(w, loaded_rep);
            writeLatency(w, loaded_rep);
            w.field("rerouted", loaded_rerouted);
            w.field("conserved", loaded_ok);
            w.endObject();

            w.key("placement").beginObject();
            w.field("model", "mobilenetv1");
            w.field("nodes_pct", 50.0);
            w.field("calibrated_p99_ms", cal_rep.p99_ms);
            w.field("capability_p99_ms", cap_rep.p99_ms);
            w.field("calibrated_first",
                    cal_rep.models[0].placement_rank.front());
            w.field("capability_first",
                    cap_rep.models[0].placement_rank.front());
            w.field("calibrated_beats_capability", calibrated_wins);
            w.endObject();

            w.key("rollout").beginObject();
            w.field("model", rs.model);
            w.field("candidate_build_id",
                    static_cast<std::int64_t>(
                        rs.candidate_build_id));
            w.field("halted", rs.halted);
            w.field("quarantined", quarantined);
            w.key("verdicts").beginArray();
            for (const auto &v : rs.verdicts) {
                w.beginObject();
                w.field("class", v.dev_class);
                w.field("accepted", v.accepted);
                w.field("disagreement_pct", v.disagreement_pct);
                w.field("reason", v.reason);
                w.endObject();
            }
            w.endArray();
            w.key("stages").beginArray();
            for (const auto &st : rs.stages) {
                w.beginObject();
                w.field("t_s", st.t_s);
                w.field("pct", st.pct);
                w.field("executed", st.executed);
                w.field("cohort", st.cohort);
                w.field("switched", st.switched);
                w.field("quarantined", st.quarantined);
                w.endObject();
            }
            w.endArray();
            w.endObject();

            w.key("determinism").beginObject();
            w.field("same_seed_identical", same_seed_identical);
            w.field("serial_equals_parallel",
                    serial_equals_parallel);
            w.endObject();
        });
    return rc;
}

/** Wall time of one mid-size fleet run end to end. */
void
BM_FleetScenario(benchmark::State &state)
{
    std::vector<fleet::NodeGroup> groups = {
        fleet::parseNodeGroup("nx:32"),
        fleet::parseNodeGroup("agx:8")};
    fleet::FleetConfig cfg =
        baseConfig(groups, "resnet-18", 8000.0, 50.0);
    cfg.duration_s = 1.0;
    for (auto _ : state) {
        fleet::FleetReport rep = fleet::runFleet(cfg);
        benchmark::DoNotOptimize(rep.completed);
    }
}

} // namespace

BENCHMARK(BM_FleetScenario)
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

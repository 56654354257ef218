/**
 * @file
 * EdgeDeploy study: the engine-lifecycle pipeline end to end.
 *
 * Part A — drift-gate seed sweep: rebuild resnet-18 at a ladder of
 * builder seeds against a fixed incumbent and push each candidate
 * through the DriftGate. Expected shape: canary disagreements land
 * in the paper's Finding 2 band (0.1–0.8% of predictions), so with
 * the default 0.4% gate some rebuilds promote and some are rejected
 * — rebuilding is *not* behaviour-preserving, and the gate is what
 * catches it.
 *
 * Part B — live hot-swap: run EdgeServe with a mid-run drift-gated
 * swap (HotSwapper: repository bootstrap → gated rebuild →
 * serve::SwapSpec) and verify the swap protocol's headline claim:
 * every offered request is either completed or shed by admission —
 * none are dropped across the swap. A second run injects swap-time
 * load faults and shows the rollback path restoring the incumbent.
 *
 * The whole study is a pure function of its seeds: the report
 * renders twice and the run aborts if the two documents differ
 * (byte determinism), mirroring bench_serving.
 *
 * `--smoke` (stripped before benchmark::Initialize) shrinks the
 * seed ladder and the serving window for CI.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <filesystem>
#include <string>
#include <vector>

#include "report.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/builder.hh"
#include "deploy/drift_gate.hh"
#include "deploy/hotswap.hh"
#include "deploy/repository.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "watch/watch.hh"

namespace {

using namespace edgert;

bool g_smoke = false;

constexpr const char *kModel = "resnet-18";
constexpr std::uint64_t kIncumbentSeed = 1;

/** Scratch repository root, recreated per study run. */
const char *kRepoDir = "bench_deploy_repo.tmp";

// ---------- Part A: drift-gate seed sweep ----------

struct GatePoint
{
    std::uint64_t seed = 0;
    std::uint64_t fingerprint = 0;
    bool accepted = false;
    std::int64_t disagreements = 0;
    double disagreement_pct = 0.0;
    double kernel_remap_pct = 0.0;
    std::string reason;
};

struct GateStudy
{
    std::vector<GatePoint> points;
    int rejected = 0;
    int rejected_in_band = 0; //!< rejections with drift in 0.1–0.8%
};

GateStudy
gateSweep()
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel(kModel, 1);

    auto buildAt = [&](std::uint64_t seed) {
        core::BuilderConfig cfg;
        cfg.build_id = seed;
        return core::Builder(nx, cfg).build(net);
    };
    core::Engine incumbent = buildAt(kIncumbentSeed);

    deploy::DriftGate gate; // default 0.4% threshold
    GateStudy study;
    std::uint64_t last_seed = g_smoke ? 5 : 13;
    for (std::uint64_t seed = 2; seed <= last_seed; seed++) {
        core::Engine candidate = buildAt(seed);
        deploy::DriftVerdict v = gate.evaluate(incumbent, candidate);
        GatePoint p;
        p.seed = seed;
        p.fingerprint = candidate.fingerprint();
        p.accepted = v.accepted;
        p.disagreements = v.disagreements;
        p.disagreement_pct = v.disagreement_pct;
        p.kernel_remap_pct = v.kernel_remap_pct;
        p.reason = v.reason;
        if (!v.accepted) {
            study.rejected++;
            if (v.disagreement_pct >= 0.1 &&
                v.disagreement_pct <= 0.8)
                study.rejected_in_band++;
        }
        study.points.push_back(std::move(p));
    }

    TextTable t({"rebuild seed", "disagreement", "drift (%)",
                 "kernel remap (%)", "verdict"});
    for (const GatePoint &p : study.points)
        t.addRow({std::to_string(p.seed),
                  std::to_string(p.disagreements) + "/6000",
                  formatDouble(p.disagreement_pct, 3),
                  formatDouble(p.kernel_remap_pct, 1),
                  p.accepted ? "promote"
                             : "quarantine (" + p.reason + ")"});
    std::printf("\n=== Drift gate: %s rebuilds vs incumbent seed "
                "%llu, 6000-image canary, 0.4%% gate (Finding 2 "
                "band: 0.1-0.8%%) ===\n",
                kModel,
                static_cast<unsigned long long>(kIncumbentSeed));
    t.render(std::cout);
    std::printf("%d/%zu rebuilds rejected (%d with drift inside "
                "the paper band)\n",
                study.rejected, study.points.size(),
                study.rejected_in_band);
    return study;
}

// ---------- Part B: hot-swap into live serving ----------

struct SwapStudy
{
    serve::ModelStats clean;    //!< committed swap
    serve::ModelStats faulted;  //!< swap-load faults → rollback
    bool clean_promoted = false;
    double rollback_counter = 0.0;
    int lineage_live_after_clean = -1;
    int lineage_live_after_fault = -1;
    watch::WatchSummary clean_watch;   //!< no incidents expected
    watch::WatchSummary faulted_watch; //!< rollback => incident
};

serve::ServeConfig
swapServeConfig()
{
    serve::ServeConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = g_smoke ? 2.0 : 4.0;
    cfg.seed = 7;
    serve::ModelConfig mc;
    mc.model = kModel;
    mc.slo_ms = 25.0;
    mc.arrivals.qps = 300.0;
    cfg.models.push_back(mc);
    return cfg;
}

SwapStudy
swapStudy()
{
    SwapStudy out;
    auto &reg = obs::MetricRegistry::global();
    serve::ServeConfig cfg = swapServeConfig();
    // EdgeWatch rides along on both runs: the committed swap must
    // leave the flight recorder quiet, the faulted one must dump a
    // swap_rollback incident next to the bench report.
    cfg.watch.enabled = true;
    cfg.watch.incident_prefix = "BENCH_deploy_watch.";
    double t_swap = cfg.duration_s / 2.0;

    auto liveVersion = [&](deploy::EngineRepository &repo) {
        deploy::ModelKey key{kModel, cfg.devices.front().name,
                             nn::Precision::kFp16};
        auto m = repo.manifest(key);
        return m.ok() ? m->live_version : -1;
    };

    // Clean swap: the gate promotes the rebuild (threshold above
    // seed 2's drift), the server commits it mid-run.
    {
        std::filesystem::remove_all(kRepoDir);
        deploy::EngineRepository repo(kRepoDir);
        deploy::DriftGateConfig gate_cfg;
        gate_cfg.max_disagreement_pct = 0.5;
        deploy::HotSwapper swapper(repo, gate_cfg);
        deploy::HotSwapPlan plan =
            swapper.planSwaps(cfg, t_swap, kIncumbentSeed + 1);
        out.clean_promoted = !plan.swaps.empty();
        serve::ServeReport rep = swapper.runWithSwaps(cfg, plan);
        out.clean = rep.models.front();
        out.clean_watch = rep.watch;
        out.lineage_live_after_clean = liveVersion(repo);
    }

    // Faulted swap: every swap-time candidate load fails, the swap
    // rolls back, the incumbent keeps serving, and the repository
    // lineage reverts.
    {
        std::filesystem::remove_all(kRepoDir);
        deploy::EngineRepository repo(kRepoDir);
        deploy::DriftGateConfig gate_cfg;
        gate_cfg.max_disagreement_pct = 0.5;
        deploy::HotSwapper swapper(repo, gate_cfg);
        serve::ServeConfig fcfg = cfg;
        fcfg.faults.swap_load_failures[kModel] =
            fcfg.faults.max_load_attempts;
        deploy::HotSwapPlan plan =
            swapper.planSwaps(fcfg, t_swap, kIncumbentSeed + 1);
        serve::ServeReport rep = swapper.runWithSwaps(fcfg, plan);
        out.faulted = rep.models.front();
        out.faulted_watch = rep.watch;
        out.lineage_live_after_fault = liveVersion(repo);
        out.rollback_counter =
            reg.counter("deploy.swap.rolled_back",
                        {{"model", kModel},
                         {"reason", "load_failure"}})
                .value();
    }
    std::filesystem::remove_all(kRepoDir);

    auto line = [](const char *tag, const serve::ModelStats &m,
                   int live) {
        std::printf("%-9s offered %lld = completed %lld + shed "
                    "%lld (dropped %lld) | swaps %lld, rolled back "
                    "%lld%s%s | active build %llu | pause %.2f ms "
                    "| p99 in-swap %.2f ms vs steady %.2f ms | "
                    "lineage live v%d\n",
                    tag, static_cast<long long>(m.offered),
                    static_cast<long long>(m.completed),
                    static_cast<long long>(m.shed),
                    static_cast<long long>(m.offered - m.completed -
                                           m.shed),
                    static_cast<long long>(m.swaps),
                    static_cast<long long>(m.swaps_rolled_back),
                    m.swap_rollback_reason.empty() ? "" : ": ",
                    m.swap_rollback_reason.c_str(),
                    static_cast<unsigned long long>(
                        m.active_build_id),
                    m.swap_downtime_ms, m.p99_swap_ms,
                    m.p99_steady_ms, live);
    };
    std::printf("\n=== Hot-swap into live serving: %s at %.0f qps, "
                "swap at %.1f s of %.1f s ===\n",
                kModel, cfg.models.front().arrivals.qps, t_swap,
                cfg.duration_s);
    line("clean:", out.clean, out.lineage_live_after_clean);
    line("faulted:", out.faulted, out.lineage_live_after_fault);
    std::printf("watch:    clean %lld incident(s), faulted %lld "
                "incident(s) (BENCH_deploy_watch.*)\n",
                static_cast<long long>(out.clean_watch.incidents),
                static_cast<long long>(
                    out.faulted_watch.incidents));
    return out;
}

// ---------- Report ----------

void
fillReport(JsonWriter &w, const GateStudy &gate,
           const SwapStudy &swap)
{
    w.field("model", kModel);
    w.field("smoke", g_smoke);
    w.field("incumbent_seed", kIncumbentSeed);
    w.key("drift_gate").beginObject();
    w.field("gate_pct", 0.4);
    w.field("canary_size", 6000);
    w.field("rejected", gate.rejected);
    w.field("rejected_in_paper_band", gate.rejected_in_band);
    w.key("rebuilds").beginArray();
    for (const GatePoint &p : gate.points) {
        w.beginObject();
        w.field("seed", p.seed);
        w.field("accepted", p.accepted);
        w.field("disagreements", p.disagreements);
        w.field("disagreement_pct", p.disagreement_pct);
        w.field("kernel_remap_pct", p.kernel_remap_pct);
        w.field("reason", p.reason);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    auto stats = [&](const char *k, const serve::ModelStats &m,
                     int live) {
        w.key(k).beginObject();
        w.field("offered", m.offered);
        w.field("completed", m.completed);
        w.field("shed", m.shed);
        w.field("dropped", m.offered - m.completed - m.shed);
        w.field("swaps", m.swaps);
        w.field("swaps_rolled_back", m.swaps_rolled_back);
        w.field("swap_rollback_reason", m.swap_rollback_reason);
        w.field("active_build_id", m.active_build_id);
        w.field("swap_downtime_ms", m.swap_downtime_ms);
        w.field("p99_swap_ms", m.p99_swap_ms);
        w.field("p99_steady_ms", m.p99_steady_ms);
        w.field("lineage_live_version", live);
        w.key("versions").beginArray();
        for (const auto &v : m.versions) {
            w.beginObject();
            w.field("build_id", v.build_id);
            w.field("batches", v.batches);
            w.field("completed", v.completed);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    };
    w.key("hot_swap").beginObject();
    w.field("candidate_promoted", swap.clean_promoted);
    stats("clean", swap.clean, swap.lineage_live_after_clean);
    stats("faulted", swap.faulted, swap.lineage_live_after_fault);
    w.field("rollback_counter", swap.rollback_counter);
    w.key("watch").beginObject();
    w.field("clean_incidents", swap.clean_watch.incidents);
    w.field("faulted_incidents", swap.faulted_watch.incidents);
    w.field("faulted_page_alerts", swap.faulted_watch.alert_counts.pages);
    w.endObject();
    w.endObject();

    bool zero_dropped =
        swap.clean.offered ==
            swap.clean.completed + swap.clean.shed &&
        swap.faulted.offered ==
            swap.faulted.completed + swap.faulted.shed;
    w.field("zero_dropped_across_swap", zero_dropped);
}

/** One full study pass, rendered to the final report document. */
std::string
renderReport()
{
    obs::MetricRegistry::global().reset();
    GateStudy gate = gateSweep();
    SwapStudy swap = swapStudy();

    JsonWriter w;
    w.beginObject();
    w.field("bench", "bench_deploy");
    fillReport(w, gate, swap);
    // The registry holds only simulation-determined values, so the
    // whole snapshot falls under the byte-determinism check below.
    w.key("metrics").raw(obs::MetricRegistry::global().toJson());
    w.endObject();
    return w.str();
}

void
runStudy()
{
    std::string doc = renderReport();

    // Byte determinism: the exact same study again must render the
    // exact same document (repository rebuilt from scratch, metric
    // registry reset — nothing may depend on wall-clock, thread
    // schedule or leftover disk state).
    std::printf("\nre-running the full study for the byte-"
                "determinism check...\n");
    std::string again = renderReport();
    bool identical = doc == again;
    std::printf("same-seed report byte-identical: %s\n",
                identical ? "yes" : "NO");
    if (!identical) {
        // Leave both documents behind for diffing.
        std::ofstream("BENCH_deploy.run1.json") << doc;
        std::ofstream("BENCH_deploy.run2.json") << again;
        fatal("bench_deploy: same-seed runs rendered different "
              "reports (see BENCH_deploy.run{1,2}.json)");
    }

    std::ofstream f("BENCH_deploy.json");
    if (!f)
        fatal("cannot write BENCH_deploy.json");
    f << doc << "\n";
    std::printf("machine-readable results written to "
                "BENCH_deploy.json\n");
}

/** Wall time of one gate evaluation (6000-image canary). */
void
BM_DriftGateEvaluate(benchmark::State &state)
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    nn::Network net = nn::buildZooModel(kModel, 1);
    core::BuilderConfig c1, c2;
    c1.build_id = 1;
    c2.build_id = 2;
    core::Engine a = core::Builder(nx, c1).build(net);
    core::Engine b = core::Builder(nx, c2).build(net);
    deploy::DriftGate gate;
    for (auto _ : state) {
        auto v = gate.evaluate(a, b);
        benchmark::DoNotOptimize(v.disagreements);
    }
}

} // namespace

BENCHMARK(BM_DriftGateEvaluate)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // Strip --smoke before the benchmark library sees argv.
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_smoke = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    runStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

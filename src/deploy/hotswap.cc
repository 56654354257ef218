#include "deploy/hotswap.hh"

#include "common/logging.hh"
#include "core/builder.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"

namespace edgert::deploy {

namespace {

ModelKey
keyFor(const serve::ServeConfig &cfg,
       const serve::ModelConfig &mc,
       std::optional<nn::Precision> precision = {})
{
    // The repository tracks the lineage of the batch-1 plan on the
    // first serving device; the server rebuilds its batch ladder
    // from the same build_id, so the fingerprints line up. Each
    // serving precision is its own lineage.
    return ModelKey{mc.model, cfg.devices.front().name,
                    precision.value_or(mc.precision)};
}

} // namespace

HotSwapper::HotSwapper(EngineRepository &repo,
                       DriftGateConfig gate_cfg)
    : repo_(repo), gate_cfg_(std::move(gate_cfg))
{}

HotSwapPlan
HotSwapper::planSwaps(
    const serve::ServeConfig &cfg, double t_s,
    std::uint64_t rebuild_build_id, int workers,
    std::optional<nn::Precision> candidate_precision,
    std::uint64_t candidate_calibration_seed)
{
    if (cfg.devices.empty())
        fatal("HotSwapper: the serve config has no devices");

    HotSwapPlan plan;
    std::vector<RebuildJob> jobs;
    std::vector<std::size_t> job_model; // jobs[i] -> models index
    plan.outcomes.resize(cfg.models.size());

    for (std::size_t m = 0; m < cfg.models.size(); m++) {
        const serve::ModelConfig &mc = cfg.models[m];
        const std::string &model = mc.model;
        ModelKey key = keyFor(cfg, mc);
        RebuildJob job;
        job.model = model;
        job.device = cfg.devices.front();
        job.precision = candidate_precision.value_or(mc.precision);
        job.build_id = rebuild_build_id;
        job.gate_against = mc.precision;
        job.calibration_seed = candidate_precision
                                   ? candidate_calibration_seed
                                   : mc.calibration_seed;
        plan.outcomes[m].job = job;

        auto manifest = repo_.manifest(key);
        if (!manifest.ok() &&
            manifest.status().code() != ErrorCode::kNotFound) {
            // Corrupt manifest: never let a broken lifecycle
            // record take a healthy incumbent out of service.
            plan.outcomes[m].status = manifest.status();
            warn("HotSwapper: skipping swap of '", model,
                 "', manifest unreadable: ",
                 manifest.status().message());
            obs::MetricRegistry::global()
                .counter("deploy.swap.skipped",
                         {{"model", model},
                          {"reason", "manifest_unreadable"}})
                .add();
            continue;
        }
        if (!manifest.ok() || manifest->live_version < 0) {
            // Bootstrap the incumbent: store the engine the server
            // is about to serve (same build_id → same binary).
            nn::Network net = nn::buildZooModel(model, 1);
            core::BuilderConfig bc;
            bc.precision = mc.precision;
            bc.calibration_seed = mc.calibration_seed;
            bc.build_id = cfg.build_id;
            core::Builder builder(cfg.devices.front(), bc);
            core::BuildReport report;
            core::Engine incumbent = builder.build(net, &report);
            auto version = repo_.put(
                incumbent, BuildMeta::from(report, "edgeserve"));
            if (!version.ok()) {
                plan.outcomes[m].status = version.status();
                warn("HotSwapper: cannot bootstrap incumbent of '",
                     model,
                     "': ", version.status().message());
                continue;
            }
            Status st = repo_.promote(key, *version);
            if (!st.ok()) {
                plan.outcomes[m].status = st;
                continue;
            }
        }
        job_model.push_back(m);
        jobs.push_back(std::move(job));
    }

    RebuildWorker worker(repo_, gate_cfg_, workers);
    std::vector<RebuildOutcome> outcomes = worker.run(jobs);
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        std::size_t m = job_model[i];
        plan.outcomes[m] = std::move(outcomes[i]);
        if (plan.outcomes[m].promoted) {
            serve::SwapSpec spec;
            spec.model = cfg.models[m].model;
            spec.t_s = t_s;
            spec.candidate_build_id = rebuild_build_id;
            if (plan.outcomes[m].job.precision !=
                cfg.models[m].precision) {
                spec.precision = plan.outcomes[m].job.precision;
                spec.calibration_seed =
                    plan.outcomes[m].job.calibration_seed;
            }
            plan.swaps.push_back(std::move(spec));
        }
    }
    return plan;
}

serve::ServeReport
HotSwapper::runWithSwaps(const serve::ServeConfig &cfg,
                         const HotSwapPlan &plan)
{
    serve::ServeConfig run_cfg = cfg;
    run_cfg.swaps.insert(run_cfg.swaps.end(), plan.swaps.begin(),
                         plan.swaps.end());
    serve::ServeReport report = serve::runServer(run_cfg);

    // Reconcile: a swap the server rolled back at runtime (load
    // fault, canary latency regression) must not stay promoted in
    // the lineage.
    for (const auto &ms : report.models) {
        if (ms.swaps_rolled_back <= 0)
            continue;
        const serve::SwapSpec *planned = nullptr;
        for (const auto &s : plan.swaps)
            if (s.model == ms.model)
                planned = &s;
        if (!planned)
            continue;
        const serve::ModelConfig *mc = nullptr;
        for (const auto &c : cfg.models)
            if (c.model == ms.model)
                mc = &c;
        if (!mc)
            continue;
        // The candidate was promoted under its own precision key
        // (which differs from the serving key on a cross-precision
        // swap), so the rollback targets that lineage.
        ModelKey key = keyFor(cfg, *mc, planned->precision);
        Status st = repo_.rollback(key);
        if (!st.ok())
            warn("HotSwapper: cannot roll back lineage of '",
                 ms.model, "': ", st.message());
        else
            inform("HotSwapper: rolled back '", ms.model,
                   "' to its previous version (",
                   ms.swap_rollback_reason, ")");
    }
    return report;
}

} // namespace edgert::deploy

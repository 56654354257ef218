#include "deploy/rebuild_worker.hh"

#include <optional>

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "core/builder.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace edgert::deploy {

namespace {

/** Built engine + report, produced in a pool slot. */
struct BuiltCandidate
{
    std::optional<core::Engine> engine;
    core::BuildReport report;
};

BuiltCandidate
buildOne(const RebuildJob &job)
{
    EDGERT_SPAN("deploy_rebuild", {{"model", job.model},
                                   {"build",
                                    std::to_string(job.build_id)}});
    nn::Network net = nn::buildZooModel(job.model, 1);
    core::BuilderConfig cfg;
    cfg.precision = job.precision;
    cfg.build_id = job.build_id;
    cfg.calibration_seed = job.calibration_seed;
    core::Builder builder(job.device, cfg);
    BuiltCandidate out;
    out.engine = builder.build(net, &out.report);
    return out;
}

} // namespace

RebuildWorker::RebuildWorker(EngineRepository &repo,
                             DriftGateConfig gate_cfg, int workers)
    : repo_(repo), gate_(std::move(gate_cfg)), workers_(workers)
{}

std::vector<RebuildOutcome>
RebuildWorker::run(const std::vector<RebuildJob> &jobs)
{
    auto &reg = obs::MetricRegistry::global();
    std::vector<BuiltCandidate> built(jobs.size());

    // Phase 1: build in parallel into disjoint slots. The builder
    // itself is deterministic for a pinned build_id regardless of
    // pool shape, but its metric *publication* order is not — so a
    // byte-deterministic caller (bench_deploy) runs with workers=1.
    if (workers_ > 1 && jobs.size() > 1) {
        ThreadPool pool(workers_);
        pool.parallelFor(jobs.size(), [&](std::size_t i) {
            built[i] = buildOne(jobs[i]);
        });
    } else {
        for (std::size_t i = 0; i < jobs.size(); i++)
            built[i] = buildOne(jobs[i]);
    }

    // Phase 2: commit serially in job order.
    std::vector<RebuildOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        RebuildOutcome out;
        out.job = jobs[i];
        const core::Engine &candidate = *built[i].engine;
        ModelKey key{candidate.modelName(), candidate.deviceName(),
                     candidate.precision()};
        reg.counter("deploy.rebuild.builds",
                    {{"model", key.model}})
            .add();

        // Cross-precision jobs judge the candidate against the
        // incumbent of another precision lineage (e.g. an INT8
        // build against the live FP16 engine); same-precision jobs
        // gate within their own lineage.
        ModelKey gate_key{key.model, key.device,
                          jobs[i].gate_against.value_or(
                              key.precision)};
        auto incumbent = repo_.loadLive(gate_key);
        auto version = repo_.put(
            candidate,
            BuildMeta::from(built[i].report, "rebuild-worker"));
        if (!version.ok()) {
            out.status = version.status();
            warn("RebuildWorker: cannot store ",
                 key.displayName(), " (build ", out.job.build_id,
                 "): ", out.status.message());
            outcomes.push_back(std::move(out));
            continue;
        }
        out.version = *version;

        if (!incumbent.ok()) {
            if (incumbent.status().code() != ErrorCode::kNotFound) {
                // Live version unreadable: keep the candidate as
                // an ungated kCandidate rather than promoting
                // blindly over an incumbent we cannot compare to.
                out.status = incumbent.status();
                warn("RebuildWorker: cannot load incumbent of ",
                     key.displayName(), ": ",
                     out.status.message());
                outcomes.push_back(std::move(out));
                continue;
            }
            // Bootstrap: nothing is live yet, promote directly.
            out.status = repo_.promote(key, out.version);
            out.promoted = out.status.ok();
            outcomes.push_back(std::move(out));
            continue;
        }

        out.gated = true;
        out.verdict = gate_.evaluate(*incumbent, candidate);
        if (out.verdict.accepted) {
            out.status = repo_.promote(key, out.version);
            out.promoted = out.status.ok();
            reg.counter("deploy.rebuild.promoted",
                        {{"model", key.model}})
                .add();
        } else {
            out.status = repo_.quarantine(
                key, out.version, out.verdict.reason,
                out.verdict.disagreement_pct);
            out.quarantined = out.status.ok();
            reg.counter("deploy.rebuild.quarantined",
                        {{"model", key.model},
                         {"reason", out.verdict.reason}})
                .add();
            inform("RebuildWorker: quarantined ", key.displayName(),
                 " v", out.version, ": ", out.verdict.detail);
        }
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

} // namespace edgert::deploy

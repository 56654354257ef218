#include "deploy/drift_gate.hh"

#include <map>

#include "common/json.hh"
#include "common/strutil.hh"
#include "data/datasets.hh"
#include "data/surrogate.hh"
#include "obs/metrics.hh"

namespace edgert::deploy {

namespace {

/** Invocations per kernel name over one inference of `engine`. */
std::map<std::string, std::int64_t>
kernelCalls(const core::Engine &engine)
{
    std::map<std::string, std::int64_t> calls;
    for (const auto &step : engine.steps())
        for (const auto &k : step.kernels)
            calls[k.name]++;
    return calls;
}

} // namespace

std::string
DriftVerdict::toJson() const
{
    JsonWriter w;
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("accepted", accepted);
    w.field("reason", reason);
    w.field("detail", detail);
    w.field("canary_ran", canary_ran);
    w.field("canary_size", canary_size);
    w.field("disagreements", disagreements);
    w.key("disagreement_pct").raw(formatDouble(disagreement_pct, 4));
    w.key("kernel_remap_pct").raw(formatDouble(kernel_remap_pct, 2));
    w.key("kernel_deltas").beginArray();
    for (const KernelDelta &d : kernel_deltas) {
        w.beginObject();
        w.field("kernel", d.kernel);
        w.field("incumbent_calls", d.incumbent_calls);
        w.field("candidate_calls", d.candidate_calls);
        w.endObject();
    }
    w.endArray();
    w.field("cross_precision", cross_precision);
    w.key("applied_disagreement_pct")
        .raw(formatDouble(applied_disagreement_pct, 4));
    w.endObject();
    return w.str();
}

DriftGate::DriftGate(DriftGateConfig cfg)
    : cfg_(std::move(cfg))
{}

DriftVerdict
DriftGate::evaluate(const core::Engine &incumbent,
                    const core::Engine &candidate) const
{
    auto &reg = obs::MetricRegistry::global();
    obs::Labels labels{{"model", incumbent.modelName()}};
    reg.counter("deploy.gate.evaluations", labels).add();

    DriftVerdict v;
    if (incumbent.modelName() != candidate.modelName()) {
        v.reason = "model_mismatch";
        v.detail = "incumbent serves '" + incumbent.modelName() +
                   "', candidate was built for '" +
                   candidate.modelName() + "'";
        reg.counter("deploy.gate.rejected",
                    {{"model", incumbent.modelName()},
                     {"reason", v.reason}})
            .add();
        return v;
    }
    // A candidate at a different precision (an INT8 rebuild of the
    // FP16 incumbent, say) is a supported promotion path, not an
    // identity error: the canary still runs, judged against the
    // wider cross-precision band instead of the rebuild-drift band.
    v.cross_precision =
        incumbent.precision() != candidate.precision();
    v.applied_disagreement_pct =
        v.cross_precision ? cfg_.cross_precision_disagreement_pct
                          : cfg_.max_disagreement_pct;
    // Both quantized but calibrated on different data: the scale
    // tables differ, which flips extra borderline predictions —
    // calibration variance, not model drift.
    if (incumbent.calibrationFingerprint() != 0 &&
        candidate.calibrationFingerprint() != 0 &&
        incumbent.calibrationFingerprint() !=
            candidate.calibrationFingerprint())
        v.applied_disagreement_pct += cfg_.calibration_variance_pct;

    // Kernel mapping delta (Finding 6): which kernels the plans
    // invoke, and how often, regardless of prediction agreement.
    auto inc_calls = kernelCalls(incumbent);
    auto cand_calls = kernelCalls(candidate);
    std::map<std::string, std::int64_t> all = inc_calls;
    for (const auto &[name, n] : cand_calls)
        all.emplace(name, 0);
    for (const auto &[name, unused] : all) {
        std::int64_t a =
            inc_calls.count(name) ? inc_calls.at(name) : 0;
        std::int64_t b =
            cand_calls.count(name) ? cand_calls.at(name) : 0;
        if (a != b)
            v.kernel_deltas.push_back({name, a, b});
    }
    if (!all.empty())
        v.kernel_remap_pct = 100.0 *
                             static_cast<double>(
                                 v.kernel_deltas.size()) /
                             static_cast<double>(all.size());

    if (incumbent.fingerprint() == candidate.fingerprint()) {
        // Bit-identical binaries compute bit-identical outputs;
        // the canary cannot disagree, so skip it.
        v.accepted = true;
        reg.counter("deploy.gate.accepted", labels).add();
        return v;
    }

    // Canary replay (Finding 2): top-1 disagreement between the two
    // builds on a deterministic corrupted-image batch.
    data::AdversarialDataset canary(cfg_.canary_classes,
                                    cfg_.canary_per_class,
                                    cfg_.canary_severities);
    auto inc_clf = data::SurrogateClassifier::forEngine(
        incumbent.modelName(), incumbent.fingerprint(),
        data::QuantSpec{incumbent.int8ComputeFraction(),
                        incumbent.calibrationFingerprint()});
    auto cand_clf = data::SurrogateClassifier::forEngine(
        candidate.modelName(), candidate.fingerprint(),
        data::QuantSpec{candidate.int8ComputeFraction(),
                        candidate.calibrationFingerprint()});
    v.canary_ran = true;
    v.canary_size = static_cast<std::int64_t>(canary.size());
    for (std::size_t i = 0; i < canary.size(); i++) {
        data::CorruptImageRef img = canary.at(i);
        if (inc_clf.predict(img) != cand_clf.predict(img))
            v.disagreements++;
    }
    if (v.canary_size > 0)
        v.disagreement_pct = 100.0 *
                             static_cast<double>(v.disagreements) /
                             static_cast<double>(v.canary_size);
    reg.histogram("deploy.gate.disagreement_pct", labels)
        .record(v.disagreement_pct);

    if (v.disagreement_pct > v.applied_disagreement_pct) {
        v.reason = "drift_exceeds_threshold";
        v.detail = "canary disagreement " +
                   formatDouble(v.disagreement_pct, 3) +
                   "% exceeds the " +
                   formatDouble(v.applied_disagreement_pct, 3) +
                   (v.cross_precision ? "% cross-precision gate ("
                                      : "% gate (") +
                   std::to_string(v.disagreements) + " of " +
                   std::to_string(v.canary_size) + " images)";
    } else if (v.kernel_remap_pct > cfg_.max_kernel_remap_pct) {
        v.reason = "kernel_remap_exceeds_threshold";
        v.detail = "kernel remap " +
                   formatDouble(v.kernel_remap_pct, 2) +
                   "% exceeds the " +
                   formatDouble(cfg_.max_kernel_remap_pct, 2) +
                   "% gate (" +
                   std::to_string(v.kernel_deltas.size()) +
                   " kernels changed invocation counts)";
    } else {
        v.accepted = true;
    }

    if (v.accepted) {
        reg.counter("deploy.gate.accepted", labels).add();
    } else {
        reg.counter("deploy.gate.rejected",
                    {{"model", incumbent.modelName()},
                     {"reason", v.reason}})
            .add();
    }
    return v;
}

} // namespace edgert::deploy

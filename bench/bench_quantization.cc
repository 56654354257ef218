/**
 * @file
 * EdgeQuant study: the calibrated INT8 / mixed-precision ladder.
 *
 * Part A — throughput/accuracy frontier: build each model at fp16,
 * mixed and int8 on the Xavier NX, predict batch-1 service time with
 * the BSP LatencyPredictor and score top-1 error with the surrogate
 * classifier. The accuracy axis isolates the quantization *bias*:
 * all three classifiers share the fp16 incumbent's fingerprint
 * (zero-mean Finding-2 rebuild noise is orthogonal to precision and
 * studied in bench_engine_variance) while the quantization posture —
 * INT8 flops share and calibration table — varies per engine.
 * Expected shape — and a hard gate: `@mixed` lands *strictly
 * between* `@fp16` and `@int8` on both axes. INT8 buys throughput
 * and pays margin; the per-layer selector's FP16 fallbacks claw back
 * part of the accuracy cost at part of the speedup.
 *
 * Part B — calibration-seed variance: rebuild the mixed engine at a
 * ladder of calibration seeds. Same-seed rebuilds must be
 * byte-identical plans (hard gate); different seeds shift the scale
 * tables, occasionally flip a borderline layer's fallback decision,
 * and move top-1 error inside a narrow band — the F2-style
 * nondeterminism the cross-precision drift gate budgets for.
 *
 * Part C — cross-precision hot-swap: serve an @fp16 incumbent live,
 * rebuild an @int8 candidate from the same lineage, push it through
 * the cross-precision DriftGate and hot-swap it mid-run. Hard gates:
 * the candidate promotes, the swap commits, and not one request is
 * dropped across the precision change.
 *
 * The whole study renders twice and aborts unless the two documents
 * are byte-identical (determinism contract), mirroring bench_deploy.
 * `--smoke` shrinks the model list, seed ladder and serving window
 * for CI.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "report.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/builder.hh"
#include "core/precision.hh"
#include "data/datasets.hh"
#include "data/surrogate.hh"
#include "deploy/hotswap.hh"
#include "deploy/repository.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "serve/predictor.hh"
#include "serve/server.hh"

namespace {

using namespace edgert;

bool g_smoke = false;

/** Scratch repository root, recreated per study run. */
const char *kRepoDir = "bench_quantization_repo.tmp";

constexpr std::uint64_t kCalibSeed = 1;

std::vector<std::string>
studyModels()
{
    if (g_smoke)
        return {"resnet-18"};
    return {"resnet-18", "alexnet", "vgg-16"};
}

core::Engine
buildAt(const std::string &model, nn::Precision precision,
        std::uint64_t calibration_seed,
        core::BuildReport *report = nullptr)
{
    nn::Network net = nn::buildZooModel(model, 1);
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    cfg.precision = precision;
    cfg.calibration_seed = calibration_seed;
    if (precision == nn::Precision::kMixed) {
        // Pin the total budget to 60% of this model's *own* all-INT8
        // margin loss so every study model genuinely mixes. Under
        // the absolute default a small model (vgg-16's mild range
        // ratios) can fit entirely in INT8 — correct behaviour, but
        // then @mixed == @int8 and there is no frontier to trace.
        auto graph = core::optimize(net, nn::Precision::kInt8);
        core::Int8Calibrator calib(net, calibration_seed);
        core::PrecisionPlanConfig unbounded;
        unbounded.layer_margin_budget = 1e9;
        unbounded.total_margin_budget = 1e9;
        auto all = core::selectPrecisions(graph, calib, unbounded);
        cfg.precision_plan.total_margin_budget =
            0.6 * all.quantized_loss;
    }
    return core::Builder(gpusim::DeviceSpec::xavierNX(), cfg)
        .build(net, report);
}

double
topOneErrorPct(const data::SurrogateClassifier &clf,
               const data::BenignDataset &ds)
{
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < ds.size(); i++) {
        data::ImageRef img = ds.at(i);
        if (clf.predict(img) != img.class_id)
            wrong++;
    }
    return 100.0 * static_cast<double>(wrong) /
           static_cast<double>(ds.size());
}

// ---------- Part A: throughput/accuracy frontier ----------

struct FrontierPoint
{
    std::string model;
    nn::Precision precision = nn::Precision::kFp16;
    double svc_ms = 0.0;
    double qps = 0.0;
    double err_pct = 0.0;
    double int8_fraction = 0.0;
    int int8_nodes = 0;
    int fp16_fallbacks = 0;
    std::uint64_t fingerprint = 0;
};

struct FrontierStudy
{
    std::vector<FrontierPoint> points; //!< model-major, fp16→int8
    int images = 0;
};

FrontierStudy
frontierStudy()
{
    // A large benign sample keeps the accuracy axis resolvable: the
    // mixed/int8 margin-penalty gap is a few thousandths, so the
    // strict-ordering gate needs enough borderline images to flip.
    data::BenignDataset ds(/*classes=*/200, /*per_class=*/100);
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();

    FrontierStudy study;
    study.images = static_cast<int>(ds.size());
    const nn::Precision ladder[] = {nn::Precision::kFp16,
                                    nn::Precision::kMixed,
                                    nn::Precision::kInt8};
    for (const std::string &model : studyModels()) {
        // One shared noise fingerprint per model (see file comment):
        // the accuracy column then moves only with the quantization
        // posture, never with tactic-reshuffle noise.
        std::uint64_t noise_fp = 0;
        for (nn::Precision p : ladder) {
            core::BuildReport report;
            core::Engine e = buildAt(model, p, kCalibSeed, &report);
            if (p == nn::Precision::kFp16)
                noise_fp = e.fingerprint();
            serve::LatencyPredictor pred(nx);
            pred.calibrate(e);
            FrontierPoint pt;
            pt.model = model;
            pt.precision = p;
            pt.svc_ms = pred.predictServiceSeconds(e) * 1e3;
            pt.qps = 1e3 / pt.svc_ms;
            pt.int8_fraction = e.int8ComputeFraction();
            pt.int8_nodes = report.precision_plan.int8_nodes;
            pt.fp16_fallbacks = report.precision_plan.fp16_fallbacks;
            pt.fingerprint = e.fingerprint();
            auto clf = data::SurrogateClassifier::forEngine(
                model, noise_fp,
                data::QuantSpec{e.int8ComputeFraction(),
                                e.calibrationFingerprint()});
            pt.err_pct = topOneErrorPct(clf, ds);
            study.points.push_back(std::move(pt));
        }
    }

    TextTable t({"model", "precision", "svc (ms)", "qps",
                 "top-1 err (%)", "int8 flops", "fallbacks"});
    for (const FrontierPoint &p : study.points)
        t.addRow({p.model, nn::precisionName(p.precision),
                  formatDouble(p.svc_ms, 3), formatDouble(p.qps, 0),
                  formatDouble(p.err_pct, 3),
                  formatDouble(100.0 * p.int8_fraction, 1) + "%",
                  p.precision == nn::Precision::kMixed
                      ? std::to_string(p.fp16_fallbacks) + "/" +
                            std::to_string(p.fp16_fallbacks +
                                           p.int8_nodes)
                      : "-"});
    std::printf("\n=== Throughput/accuracy frontier on NX (%d "
                "benign images, calibration seed %llu) ===\n",
                study.images,
                static_cast<unsigned long long>(kCalibSeed));
    t.render(std::cout);

    // Hard gate: mixed strictly between the poles on both axes.
    for (std::size_t m = 0; m < study.points.size(); m += 3) {
        const FrontierPoint &f16 = study.points[m];
        const FrontierPoint &mix = study.points[m + 1];
        const FrontierPoint &i8 = study.points[m + 2];
        if (!(f16.qps < mix.qps && mix.qps < i8.qps))
            fatal("bench_quantization: ", f16.model,
                  " throughput not strictly ordered fp16 < mixed < "
                  "int8 (",
                  f16.qps, " / ", mix.qps, " / ", i8.qps, " qps)");
        if (!(f16.err_pct < mix.err_pct && mix.err_pct < i8.err_pct))
            fatal("bench_quantization: ", f16.model,
                  " top-1 error not strictly ordered fp16 < mixed < "
                  "int8 (",
                  f16.err_pct, " / ", mix.err_pct, " / ", i8.err_pct,
                  " %)");
        if (mix.fp16_fallbacks <= 0 || mix.int8_nodes <= 0)
            fatal("bench_quantization: ", f16.model,
                  " mixed build is not genuinely mixed (",
                  mix.int8_nodes, " int8 nodes, ",
                  mix.fp16_fallbacks, " fallbacks)");
    }
    std::printf("frontier gate: @mixed strictly between @fp16 and "
                "@int8 on both axes for every model\n");
    return study;
}

// ---------- Part B: calibration-seed variance ----------

struct SeedPoint
{
    std::uint64_t calibration_seed = 0;
    std::uint64_t calibration_fingerprint = 0;
    std::uint64_t plan_fingerprint = 0; //!< engine fingerprint
    int fp16_fallbacks = 0;
    double err_pct = 0.0;
};

struct SeedStudy
{
    std::string model = "resnet-18";
    std::vector<SeedPoint> points;
    bool same_seed_byte_identical = false;
    int distinct_plans = 0;
    double err_min_pct = 0.0;
    double err_max_pct = 0.0;
};

SeedStudy
seedStudy()
{
    SeedStudy study;
    data::BenignDataset ds(200, 100);

    // Same calibration seed twice: the plan bytes must match
    // exactly — calibration is a pure function of (model, seed).
    study.same_seed_byte_identical =
        buildAt(study.model, nn::Precision::kMixed, kCalibSeed)
            .serialize() ==
        buildAt(study.model, nn::Precision::kMixed, kCalibSeed)
            .serialize();
    if (!study.same_seed_byte_identical)
        fatal("bench_quantization: same-calibration-seed rebuilds "
              "are not byte-identical");

    std::uint64_t seeds = g_smoke ? 3 : 8;
    for (std::uint64_t s = 1; s <= seeds; s++) {
        core::BuildReport report;
        core::Engine e =
            buildAt(study.model, nn::Precision::kMixed, s, &report);
        SeedPoint pt;
        pt.calibration_seed = s;
        pt.calibration_fingerprint = e.calibrationFingerprint();
        pt.plan_fingerprint = e.fingerprint();
        pt.fp16_fallbacks = report.precision_plan.fp16_fallbacks;
        auto clf = data::SurrogateClassifier::forEngine(
            study.model, e.fingerprint(),
            data::QuantSpec{e.int8ComputeFraction(),
                            e.calibrationFingerprint()});
        pt.err_pct = topOneErrorPct(clf, ds);
        study.points.push_back(pt);
    }
    for (std::size_t i = 0; i < study.points.size(); i++) {
        bool fresh = true;
        for (std::size_t j = 0; j < i; j++)
            if (study.points[j].plan_fingerprint ==
                study.points[i].plan_fingerprint)
                fresh = false;
        study.distinct_plans += fresh;
        double err = study.points[i].err_pct;
        if (i == 0)
            study.err_min_pct = study.err_max_pct = err;
        study.err_min_pct = std::min(study.err_min_pct, err);
        study.err_max_pct = std::max(study.err_max_pct, err);
    }

    TextTable t({"calib seed", "table fingerprint",
                 "engine fingerprint", "fallbacks", "top-1 err (%)"});
    for (const SeedPoint &p : study.points) {
        char fp[2][32];
        std::snprintf(fp[0], sizeof fp[0], "%016llx",
                      static_cast<unsigned long long>(
                          p.calibration_fingerprint));
        std::snprintf(fp[1], sizeof fp[1], "%016llx",
                      static_cast<unsigned long long>(
                          p.plan_fingerprint));
        t.addRow({std::to_string(p.calibration_seed), fp[0], fp[1],
                  std::to_string(p.fp16_fallbacks),
                  formatDouble(p.err_pct, 3)});
    }
    std::printf("\n=== Calibration-seed variance: %s @mixed, %llu "
                "seeds (same-seed rebuild byte-identical: yes) "
                "===\n",
                study.model.c_str(),
                static_cast<unsigned long long>(seeds));
    t.render(std::cout);
    std::printf("%d distinct engines; top-1 error band %.3f%% - "
                "%.3f%%\n",
                study.distinct_plans, study.err_min_pct,
                study.err_max_pct);
    return study;
}

// ---------- Part C: cross-precision hot-swap ----------

struct SwapStudy
{
    bool promoted = false;
    bool cross_precision = false;
    double disagreement_pct = 0.0;
    double applied_disagreement_pct = 0.0;
    serve::ModelStats stats;
};

SwapStudy
crossPrecisionSwap()
{
    serve::ServeConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = g_smoke ? 2.0 : 4.0;
    cfg.seed = 7;
    serve::ModelConfig mc;
    mc.model = "resnet-18";
    mc.precision = nn::Precision::kFp16;
    mc.slo_ms = 25.0;
    mc.arrivals.qps = 300.0;
    cfg.models.push_back(mc);
    double t_swap = cfg.duration_s / 2.0;

    std::filesystem::remove_all(kRepoDir);
    SwapStudy out;
    {
        deploy::EngineRepository repo(kRepoDir);
        deploy::HotSwapper swapper(repo); // default cross band
        deploy::HotSwapPlan plan = swapper.planSwaps(
            cfg, t_swap, /*rebuild_build_id=*/2, /*workers=*/1,
            nn::Precision::kInt8, kCalibSeed);
        out.promoted = plan.outcomes.front().promoted;
        out.cross_precision =
            plan.outcomes.front().verdict.cross_precision;
        out.disagreement_pct =
            plan.outcomes.front().verdict.disagreement_pct;
        out.applied_disagreement_pct =
            plan.outcomes.front().verdict.applied_disagreement_pct;
        if (!out.promoted)
            fatal("bench_quantization: the int8 candidate did not "
                  "pass the cross-precision drift gate (",
                  plan.outcomes.front().verdict.reason, ", ",
                  out.disagreement_pct, "% vs ",
                  out.applied_disagreement_pct, "% band)");
        serve::ServeReport rep = swapper.runWithSwaps(cfg, plan);
        out.stats = rep.models.front();
    }
    std::filesystem::remove_all(kRepoDir);

    const serve::ModelStats &m = out.stats;
    std::int64_t dropped = m.offered - m.completed - m.shed;
    std::printf("\n=== Cross-precision hot-swap: resnet-18 @fp16 -> "
                "@int8 at %.1f s of %.1f s ===\n",
                t_swap, cfg.duration_s);
    std::printf("gate: promoted, cross_precision=%s, drift %.3f%% "
                "vs %.1f%% band\n",
                out.cross_precision ? "true" : "false",
                out.disagreement_pct, out.applied_disagreement_pct);
    std::printf("serve: offered %lld = completed %lld + shed %lld "
                "(dropped %lld) | swaps %lld, rolled back %lld | "
                "active build %llu | pause %.2f ms\n",
                static_cast<long long>(m.offered),
                static_cast<long long>(m.completed),
                static_cast<long long>(m.shed),
                static_cast<long long>(dropped),
                static_cast<long long>(m.swaps),
                static_cast<long long>(m.swaps_rolled_back),
                static_cast<unsigned long long>(m.active_build_id),
                m.swap_downtime_ms);

    if (!out.cross_precision)
        fatal("bench_quantization: the gate did not apply the "
              "cross-precision band");
    if (dropped != 0)
        fatal("bench_quantization: ", dropped,
              " request(s) dropped across the cross-precision swap");
    if (m.swaps != 1 || m.swaps_rolled_back != 0 ||
        m.active_build_id != 2)
        fatal("bench_quantization: the int8 candidate is not "
              "serving after the swap (swaps ",
              m.swaps, ", rolled back ", m.swaps_rolled_back,
              ", active build ", m.active_build_id, ")");
    return out;
}

// ---------- Report ----------

void
fillReport(JsonWriter &w, const FrontierStudy &frontier,
           const SeedStudy &seeds, const SwapStudy &swap)
{
    w.field("smoke", g_smoke);
    w.field("device", "xavier-nx");
    w.field("calibration_seed", kCalibSeed);

    w.key("frontier").beginObject();
    w.field("images", frontier.images);
    w.field("mixed_strictly_between", true); // gated above
    w.key("points").beginArray();
    for (const FrontierPoint &p : frontier.points) {
        w.beginObject();
        w.field("model", p.model);
        w.field("precision", nn::precisionName(p.precision));
        w.field("svc_ms", p.svc_ms);
        w.field("qps", p.qps);
        w.field("top1_err_pct", p.err_pct);
        w.field("int8_flops_fraction", p.int8_fraction);
        w.field("int8_nodes", p.int8_nodes);
        w.field("fp16_fallbacks", p.fp16_fallbacks);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("calibration_variance").beginObject();
    w.field("model", seeds.model);
    w.field("same_seed_byte_identical",
            seeds.same_seed_byte_identical);
    w.field("distinct_plans", seeds.distinct_plans);
    w.field("top1_err_min_pct", seeds.err_min_pct);
    w.field("top1_err_max_pct", seeds.err_max_pct);
    w.key("seeds").beginArray();
    for (const SeedPoint &p : seeds.points) {
        w.beginObject();
        w.field("calibration_seed", p.calibration_seed);
        w.field("calibration_fingerprint",
                p.calibration_fingerprint);
        w.field("engine_fingerprint", p.plan_fingerprint);
        w.field("fp16_fallbacks", p.fp16_fallbacks);
        w.field("top1_err_pct", p.err_pct);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    const serve::ModelStats &m = swap.stats;
    w.key("cross_precision_swap").beginObject();
    w.field("from", "fp16");
    w.field("to", "int8");
    w.field("promoted", swap.promoted);
    w.field("cross_precision_gate", swap.cross_precision);
    w.field("disagreement_pct", swap.disagreement_pct);
    w.field("applied_disagreement_pct",
            swap.applied_disagreement_pct);
    w.field("offered", m.offered);
    w.field("completed", m.completed);
    w.field("shed", m.shed);
    w.field("dropped", m.offered - m.completed - m.shed);
    w.field("swaps", m.swaps);
    w.field("swaps_rolled_back", m.swaps_rolled_back);
    w.field("active_build_id", m.active_build_id);
    w.field("swap_downtime_ms", m.swap_downtime_ms);
    w.endObject();
}

/** One full study pass, rendered to the final report document. */
std::string
renderReport()
{
    obs::MetricRegistry::global().reset();
    FrontierStudy frontier = frontierStudy();
    SeedStudy seeds = seedStudy();
    SwapStudy swap = crossPrecisionSwap();

    JsonWriter w;
    w.beginObject();
    w.field("bench", "bench_quantization");
    fillReport(w, frontier, seeds, swap);
    w.key("metrics").raw(obs::MetricRegistry::global().toJson());
    w.endObject();
    return w.str();
}

void
runStudy()
{
    std::string doc = renderReport();

    // Byte determinism: the exact same study again must render the
    // exact same document.
    std::printf("\nre-running the full study for the byte-"
                "determinism check...\n");
    std::string again = renderReport();
    bool identical = doc == again;
    std::printf("same-seed report byte-identical: %s\n",
                identical ? "yes" : "NO");
    if (!identical) {
        std::ofstream("BENCH_quantization.run1.json") << doc;
        std::ofstream("BENCH_quantization.run2.json") << again;
        fatal("bench_quantization: same-seed runs rendered "
              "different reports (see "
              "BENCH_quantization.run{1,2}.json)");
    }

    std::ofstream f("BENCH_quantization.json");
    if (!f)
        fatal("cannot write BENCH_quantization.json");
    f << doc << "\n";
    std::printf("machine-readable results written to "
                "BENCH_quantization.json\n");
}

/** Wall time of one mixed-precision build (selector included). */
void
BM_MixedBuild(benchmark::State &state)
{
    nn::Network net = nn::buildZooModel("resnet-18", 1);
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    core::BuilderConfig cfg;
    cfg.build_id = 1;
    cfg.precision = nn::Precision::kMixed;
    for (auto _ : state) {
        core::Engine e = core::Builder(nx, cfg).build(net);
        benchmark::DoNotOptimize(e.fingerprint());
    }
}

/** Wall time of one precision-plan selection alone. */
void
BM_SelectPrecisions(benchmark::State &state)
{
    nn::Network net = nn::buildZooModel("resnet-18", 1);
    auto graph = core::optimize(net, nn::Precision::kInt8);
    core::Int8Calibrator calib(net, 1);
    for (auto _ : state) {
        auto plan = core::selectPrecisions(graph, calib);
        benchmark::DoNotOptimize(plan.int8_nodes);
    }
}

} // namespace

BENCHMARK(BM_MixedBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectPrecisions)->Unit(benchmark::kMicrosecond);

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

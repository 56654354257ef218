/**
 * @file
 * The findings scorecard (paper Table XIV): re-derives each of the
 * paper's four summarized findings from live (fast) runs of the
 * underlying experiments and prints whether this build of EdgeRT
 * still reproduces them. Doubles as an end-to-end smoke test of the
 * whole stack.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/builder.hh"
#include "data/datasets.hh"
#include "data/surrogate.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "report.hh"
#include "runtime/measure.hh"

namespace {

using namespace edgert;

core::Engine
build(const std::string &model, const gpusim::DeviceSpec &dev,
      std::uint64_t id)
{
    nn::Network net = nn::buildZooModel(model);
    core::BuilderConfig cfg;
    cfg.build_id = id;
    return core::Builder(dev, cfg).build(net);
}

struct Finding
{
    std::string id;
    std::string title;
    std::string evidence;
    bool reproduced = false;
};

void
printScorecard()
{
    gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    gpusim::DeviceSpec agx = gpusim::DeviceSpec::xavierAGX();
    std::vector<Finding> findings;

    // --- F1: accuracy maintained ---
    {
        data::BenignDataset ds(50, 20);
        core::Engine e = build("resnet-18", nx, 1);
        auto opt = data::SurrogateClassifier::forEngine(
            "resnet-18", e.fingerprint());
        auto raw = data::SurrogateClassifier::unoptimized(
            "resnet-18");
        std::size_t we = 0, wr = 0;
        for (std::size_t i = 0; i < ds.size(); i++) {
            if (opt.predict(ds.at(i)) != ds.at(i).class_id)
                we++;
            if (raw.predict(ds.at(i)) != ds.at(i).class_id)
                wr++;
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "top-1 err TRT %.1f%% vs unopt %.1f%%",
                      100.0 * we / ds.size(), 100.0 * wr / ds.size());
        findings.push_back(
            {"F1", "accuracy maintained", buf, we <= wr});
    }

    // --- F2: non-deterministic outputs ---
    {
        core::Engine a = build("inception-v4", nx, 11);
        core::Engine b = build("inception-v4", agx, 12);
        auto ca = data::SurrogateClassifier::forEngine(
            "inception-v4", a.fingerprint());
        auto cb = data::SurrogateClassifier::forEngine(
            "inception-v4", b.fingerprint());
        data::AdversarialDataset ds(50, 10, {1, 5});
        std::size_t diff = 0;
        for (std::size_t i = 0; i < ds.size(); i++)
            if (ca.predict(ds.at(i)) != cb.predict(ds.at(i)))
                diff++;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "%zu of %zu predictions differ across engines",
                      diff, ds.size());
        findings.push_back(
            {"F2", "output nondeterminism", buf, diff > 0});
    }

    // --- F3: throughput gain & concurrency ---
    {
        nn::Network net = nn::buildZooModel("resnet-18");
        core::BuilderConfig cfg;
        cfg.build_id = 1;
        core::Engine opt = core::Builder(nx, cfg).build(net);
        core::Engine raw =
            core::Builder(nx, cfg).buildUnoptimized(net);
        runtime::ThroughputOptions topt;
        topt.frames_per_thread = 6;
        double f_opt =
            runtime::measureThroughput(opt, nx, topt).aggregate_fps;
        double f_raw =
            runtime::measureThroughput(raw, nx, topt).aggregate_fps;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.0fx FPS gain over "
                      "un-optimized", f_opt / f_raw);
        findings.push_back(
            {"F3", "throughput gain", buf, f_opt / f_raw > 10.0});
    }

    // --- F4: slower on the bigger platform ---
    {
        core::Engine e_nx = build("resnet-18", nx, 1);
        core::Engine e_agx = build("resnet-18", agx, 1);
        auto l_nx = runtime::measureLatency(e_nx, nx);
        auto l_agx = runtime::measureLatency(e_agx, agx);
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "resnet-18: NX %.1f ms vs AGX %.1f ms",
                      l_nx.mean_ms, l_agx.mean_ms);
        findings.push_back({"F4", "slower on bigger platform",
                            buf, l_agx.mean_ms > l_nx.mean_ms});
    }

    // --- F6: non-deterministic engine generation ---
    {
        std::set<std::uint64_t> prints;
        for (std::uint64_t id = 0; id < 6; id++)
            prints.insert(
                build("inception-v4", agx, 100 + id).fingerprint());
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "%zu distinct engines from 6 rebuilds",
                      prints.size());
        findings.push_back({"F6", "engine nondeterminism", buf,
                            prints.size() > 1});
    }

    TextTable table({"Finding", "Evidence (this run)", "Status"});
    for (const Finding &f : findings)
        table.addRow({f.id + " " + f.title, f.evidence,
                      f.reproduced ? "REPRODUCED"
                                   : "NOT reproduced"});
    std::printf("\n=== Findings scorecard (paper Table XIV) ===\n");
    table.render(std::cout);

    bench::saveBenchReport(
        "BENCH_findings.json", "bench_findings",
        [&](JsonWriter &w) {
            w.key("findings").beginArray();
            for (const Finding &f : findings) {
                w.beginObject();
                w.field("id", f.id);
                w.field("title", f.title);
                w.field("evidence", f.evidence);
                w.field("reproduced", f.reproduced);
                w.endObject();
            }
            w.endArray();
        });
}

void
BM_Scorecard(benchmark::State &state)
{
    for (auto _ : state) {
        core::Engine e =
            build("resnet-18", gpusim::DeviceSpec::xavierNX(), 1);
        benchmark::DoNotOptimize(e.fingerprint());
    }
}

} // namespace

BENCHMARK(BM_Scorecard)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    printScorecard();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

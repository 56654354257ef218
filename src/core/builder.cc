#include "core/builder.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/calibrator.hh"
#include "core/timing_cache.hh"
#include "gpusim/timing.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace edgert::core {

namespace {

/**
 * Hash of everything the timing model can observe about a node:
 * fused-op kind, precision, dims, and the full candidate kernel
 * geometry. Equal signatures imply identical measurement inputs, so
 * a timing-cache hit is exact (see timing_cache.hh).
 */
std::uint64_t
nodeSignature(const OptNode &node, const NodeCost &cost,
              const std::vector<Tactic> &candidates)
{
    std::uint64_t h = mix64(static_cast<std::uint64_t>(node.kind));
    h = hashCombine(h, static_cast<std::uint64_t>(node.precision));
    auto mixDims = [&](const nn::Dims &d) {
        h = hashCombine(h, static_cast<std::uint64_t>(d.n));
        h = hashCombine(h, static_cast<std::uint64_t>(d.c));
        h = hashCombine(h, static_cast<std::uint64_t>(d.h));
        h = hashCombine(h, static_cast<std::uint64_t>(d.w));
    };
    mixDims(cost.in_dims);
    mixDims(cost.out_dims);
    for (const auto &t : candidates) {
        h = hashCombine(h, hashString(t.name));
        for (const auto &k : t.kernels) {
            h = hashCombine(h, hashString(k.name));
            h = hashCombine(
                h, static_cast<std::uint64_t>(k.grid_blocks));
            h = hashCombine(
                h, static_cast<std::uint64_t>(k.block_threads));
            h = hashCombine(h, static_cast<std::uint64_t>(k.flops));
            h = hashCombine(
                h, static_cast<std::uint64_t>(k.dram_bytes));
            h = hashCombine(
                h, static_cast<std::uint64_t>(
                       k.max_blocks_per_sm * 4 + k.tensor_core * 2 +
                       k.strided_access));
            std::uint64_t eff;
            static_assert(sizeof(eff) == sizeof(k.efficiency));
            std::memcpy(&eff, &k.efficiency, sizeof(eff));
            h = hashCombine(h, eff);
            std::uint64_t tile;
            std::memcpy(&tile, &k.tile_kb, sizeof(tile));
            h = hashCombine(h, tile);
        }
    }
    return h;
}

/** Autotuning state for one fused node. */
struct NodeSweep
{
    std::vector<Tactic> candidates;
    NodeCost cost;
    std::uint64_t signature = 0;
    std::vector<double> seconds; //!< per candidate (cache mode: shared)
};

} // namespace

double
TimingWorkload::serialSeconds() const
{
    double total = 0.0;
    for (double t : task_device_seconds)
        total += t;
    return total;
}

double
TimingWorkload::makespanSeconds(int workers) const
{
    if (workers < 1)
        workers = 1;
    // Greedy in dispatch order — exactly what the pool's atomic
    // task counter does: a finishing worker grabs the next task.
    std::vector<double> clock(static_cast<std::size_t>(workers),
                              0.0);
    for (double t : task_device_seconds)
        *std::min_element(clock.begin(), clock.end()) += t;
    return *std::max_element(clock.begin(), clock.end());
}

Builder::Builder(const gpusim::DeviceSpec &device,
                 const BuilderConfig &config)
    : device_(device), config_(config)
{
    if (config_.avg_timing_iterations < 1)
        fatal("Builder: avg_timing_iterations must be >= 1");
    if (config_.jobs < 0)
        fatal("Builder: jobs must be >= 0");
}

double
Builder::measureTactic(const Tactic &tactic,
                       std::uint64_t noise_key) const
{
    // The autotuner observes the candidate through noisy wall-clock
    // timing: each iteration re-runs the tactic's kernels on the
    // simulated device and perturbs the analytic duration with
    // measurement jitter. The jitter RNG is keyed by build id, node
    // identity and tactic — never wall-clock or thread schedule —
    // so a different build id yields a different (but internally
    // deterministic) set of measurements: the mechanical source of
    // non-deterministic engine generation (Finding 6), and what
    // keeps parallel builds bit-identical to serial ones.
    Rng rng(noise_key);
    double sum = 0.0;
    for (int i = 0; i < config_.avg_timing_iterations; i++) {
        double t = 0.0;
        for (const auto &k : tactic.kernels)
            t += gpusim::soloKernelSeconds(device_, k) +
                 device_.kernel_launch_us * 1e-6;
        double noise = rng.gaussian(0.0, config_.timing_noise);
        sum += t * std::max(0.2, 1.0 + noise);
    }
    return sum / static_cast<double>(config_.avg_timing_iterations);
}

Engine
Builder::build(const nn::Network &net, BuildReport *report) const
{
    // The report doubles as the source of the builder metrics, so
    // always collect one even when the caller passed none.
    BuildReport local_report;
    if (!report)
        report = &local_report;

    EDGERT_SPAN("build",
                {{"model", net.name()}, {"device", device_.name}});

    net.validate();
    // A mixed build starts from the fully quantized assignment and
    // lets the precision selector walk individual nodes back to FP16.
    nn::Precision node_target =
        config_.precision == nn::Precision::kMixed
            ? nn::Precision::kInt8
            : config_.precision;
    OptimizedGraph graph =
        optimize(net, node_target, config_.optimizer);
    report->optimizer = graph.stats();

    // INT8 and mixed builds calibrate activation ranges first; the
    // resulting table is part of the engine's identity.
    std::uint64_t calib_fp = 0;
    if (config_.precision == nn::Precision::kInt8 ||
        config_.precision == nn::Precision::kMixed) {
        Int8Calibrator calibrator(net, config_.calibration_seed);
        calib_fp = calibrator.tableFingerprint();
        if (config_.precision == nn::Precision::kMixed) {
            report->precision_plan = selectPrecisions(
                graph, calibrator, config_.precision_plan);
            applyPrecisionPlan(graph, report->precision_plan);
        }
    }

    const auto &nodes = graph.nodes();
    std::vector<NodeSweep> sweeps(nodes.size());
    TimingCache *cache = config_.timing_cache;

    int jobs = config_.jobs == 0 ? ThreadPool::defaultThreads()
                                 : config_.jobs;
    std::unique_ptr<ThreadPool> pool;
    if (jobs > 1 && nodes.size() > 1)
        pool = std::make_unique<ThreadPool>(jobs);
    auto forEach = [&](std::size_t n,
                       const std::function<void(std::size_t)> &body) {
        if (pool) {
            pool->parallelFor(n, body);
        } else {
            for (std::size_t i = 0; i < n; i++)
                body(i);
        }
    };

    // Phase 1 — per-node prep (parallel): enumerate candidates,
    // analyze cost and, without a cache, run the timing sweep with
    // the classic per-node noise keying. Work items write disjoint
    // slots, so scheduling cannot affect the result.
    forEach(nodes.size(), [&](std::size_t i) {
        EDGERT_SPAN("tactic_sweep", {{"node", nodes[i].name}});
        NodeSweep &s = sweeps[i];
        s.candidates = tacticCandidates(graph, nodes[i], device_);
        if (s.candidates.empty())
            return; // reported serially below
        s.cost = analyzeNode(graph, nodes[i]);
        if (cache) {
            s.signature = nodeSignature(nodes[i], s.cost,
                                        s.candidates);
        } else {
            s.seconds.resize(s.candidates.size());
            for (std::size_t j = 0; j < s.candidates.size(); j++)
                s.seconds[j] = measureTactic(
                    s.candidates[j],
                    hashCombine(
                        hashCombine(config_.build_id,
                                    hashString(nodes[i].name)),
                        hashCombine(
                            hashString(s.candidates[j].name), j)));
        }
    });
    for (std::size_t i = 0; i < nodes.size(); i++)
        if (sweeps[i].candidates.empty())
            panic("no tactic candidates for node ", nodes[i].name);

    // Phase 2 — cache-backed timing resolution. Measurements are
    // shared per node *signature*: the first node (in topological
    // order) with a given signature owns the sweep, and its noise
    // RNG is keyed by (build_id, signature, tactic, trial). Lookups
    // only see the pre-build cache — fresh measurements are
    // committed afterwards in owner order — so neither thread
    // schedule nor intra-build insert races can perturb the result.
    if (cache) {
        std::vector<std::size_t> owners;
        std::unordered_map<std::uint64_t, std::size_t> owner_of;
        for (std::size_t i = 0; i < nodes.size(); i++)
            if (owner_of.emplace(sweeps[i].signature, i).second)
                owners.push_back(i);

        std::vector<std::vector<char>> fresh(owners.size());
        forEach(owners.size(), [&](std::size_t oi) {
            NodeSweep &s = sweeps[owners[oi]];
            EDGERT_SPAN("tactic_sweep",
                        {{"node", nodes[owners[oi]].name}});
            s.seconds.resize(s.candidates.size());
            fresh[oi].assign(s.candidates.size(), 0);
            for (std::size_t j = 0; j < s.candidates.size(); j++) {
                EDGERT_SPAN("cache_lookup",
                            {{"tactic", s.candidates[j].name}});
                std::string key = TimingCache::key(
                    device_.name, s.signature, s.candidates[j].name);
                if (auto hit = cache->lookup(key)) {
                    s.seconds[j] = *hit;
                } else {
                    s.seconds[j] = measureTactic(
                        s.candidates[j],
                        hashCombine(
                            hashCombine(config_.build_id,
                                        s.signature),
                            hashCombine(
                                hashString(s.candidates[j].name),
                                j)));
                    fresh[oi][j] = 1;
                }
            }
        });
        for (std::size_t oi = 0; oi < owners.size(); oi++) {
            const NodeSweep &s = sweeps[owners[oi]];
            for (std::size_t j = 0; j < s.candidates.size(); j++)
                if (fresh[oi][j])
                    cache->insert(
                        TimingCache::key(device_.name, s.signature,
                                         s.candidates[j].name),
                        s.seconds[j]);
        }
        for (auto &s : sweeps)
            if (s.seconds.empty())
                s.seconds = sweeps[owner_of.at(s.signature)].seconds;

        {
            TimingWorkload &w = report->workload;
            w.jobs = jobs;
            double iters = config_.avg_timing_iterations;
            w.task_device_seconds.reserve(owners.size());
            for (std::size_t oi = 0; oi < owners.size(); oi++) {
                const NodeSweep &s = sweeps[owners[oi]];
                double dev = 0.0;
                for (std::size_t j = 0; j < s.candidates.size();
                     j++) {
                    if (fresh[oi][j]) {
                        w.measurements++;
                        dev += s.seconds[j] * iters;
                    } else {
                        w.cache_hits++;
                    }
                }
                w.task_device_seconds.push_back(dev);
            }
            for (std::size_t i = 0; i < nodes.size(); i++)
                if (owner_of.at(sweeps[i].signature) != i)
                    w.shared += static_cast<std::int64_t>(
                        sweeps[i].candidates.size());
        }
    } else {
        TimingWorkload &w = report->workload;
        w.jobs = jobs;
        double iters = config_.avg_timing_iterations;
        w.task_device_seconds.reserve(sweeps.size());
        for (const NodeSweep &s : sweeps) {
            double dev = 0.0;
            for (double sec : s.seconds)
                dev += sec * iters;
            w.measurements +=
                static_cast<std::int64_t>(s.seconds.size());
            w.task_device_seconds.push_back(dev);
        }
    }

    // Phase 3 — serial selection pass: argmin per node, build log,
    // step assembly. Cheap, and keeps report/step order exactly the
    // topological order regardless of jobs.
    std::vector<ExecutionStep> steps;
    steps.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); i++) {
        const auto &node = nodes[i];
        NodeSweep &s = sweeps[i];

        double best = std::numeric_limits<double>::infinity();
        double runner_up = best;
        std::size_t best_idx = 0;
        for (std::size_t j = 0; j < s.candidates.size(); j++) {
            double t = s.seconds[j];
            if (t < best) {
                runner_up = best;
                best = t;
                best_idx = j;
            } else if (t < runner_up) {
                runner_up = t;
            }
        }
        Tactic &chosen = s.candidates[best_idx];

        debug("tactic: ", node.name, " -> ", chosen.name, " (",
              s.candidates.size(), " candidates, best ", best * 1e3,
              " ms)");

        TuningRecord rec;
        rec.node_name = node.name;
        rec.chosen_tactic = chosen.name;
        rec.candidates = static_cast<int>(s.candidates.size());
        rec.best_ms = best * 1e3;
        rec.runner_up_ms =
            std::isfinite(runner_up) ? runner_up * 1e3 : 0.0;
        report->tuning.push_back(std::move(rec));

        ExecutionStep step;
        step.node_name = node.name;
        step.kind = node.kind;
        step.tactic_name = chosen.name;
        step.kernels = std::move(chosen.kernels);
        step.precision = node.precision;
        step.weight_plan_bytes = static_cast<std::int64_t>(
            static_cast<double>(s.cost.weight_params) * 4.0 *
            chosen.weight_layout_factor);
        step.weight_transfers = chosen.weight_transfers;
        steps.push_back(std::move(step));
    }

    std::vector<IoDesc> inputs;
    for (const auto &in : net.inputs()) {
        const auto &t = net.tensor(in);
        inputs.push_back({in, t.dims, t.dims.volume() * 4});
    }
    std::vector<IoDesc> outputs;
    for (const auto &out : net.outputs()) {
        const auto &t = net.tensor(out);
        outputs.push_back({out, t.dims, t.dims.volume() * 4});
    }

    publishMetrics(*report, cache, pool.get());

    Engine engine(net.name(), device_.name, config_.precision,
                  config_.build_id, std::move(steps),
                  std::move(inputs), std::move(outputs), calib_fp);

    BuildProvenance &prov = report->provenance;
    prov.model = net.name();
    prov.device = device_.name;
    prov.precision = config_.precision;
    prov.build_id = config_.build_id;
    prov.tactic_fingerprint = engine.fingerprint();
    prov.timing_measurements = report->workload.measurements;
    prov.timing_cache_hits = report->workload.cache_hits;
    prov.timing_shared = report->workload.shared;
    prov.jobs = report->workload.jobs;

    return engine;
}

void
Builder::publishMetrics(const BuildReport &report,
                        const TimingCache *cache,
                        const ThreadPool *pool) const
{
    using obs::MetricRegistry;
    MetricRegistry &reg = MetricRegistry::global();
    const obs::Labels device_label = {{"device", device_.name}};
    const TimingWorkload &w = report.workload;

    reg.counter("builder.builds", device_label).add();
    reg.counter("builder.tactic.measured", device_label)
        .add(w.measurements);
    reg.counter("builder.tactic.cache_served", device_label)
        .add(w.cache_hits);
    reg.counter("builder.tactic.shared", device_label)
        .add(w.shared);

    // One histogram sample per sweep task, in topological owner
    // order — parallel builds record the same sequence.
    obs::Histogram task_us = reg.histogram(
        "builder.sweep.task_device_us", device_label);
    for (double sec : w.task_device_seconds)
        task_us.record(sec * 1e6);

    reg.gauge("builder.sweep.jobs", device_label)
        .set(static_cast<double>(w.jobs));
    reg.gauge("builder.sweep.serial_device_ms", device_label)
        .set(w.serialSeconds() * 1e3);
    reg.gauge("builder.sweep.makespan_device_ms", device_label)
        .set(w.makespanSeconds(w.jobs) * 1e3);

    if (cache) {
        TimingCacheStats cs = cache->stats();
        reg.gauge("builder.timing_cache.hits", device_label)
            .set(static_cast<double>(cs.hits));
        reg.gauge("builder.timing_cache.misses", device_label)
            .set(static_cast<double>(cs.misses));
        reg.gauge("builder.timing_cache.inserts", device_label)
            .set(static_cast<double>(cs.inserts));
    }

    if (pool) {
        reg.gauge("builder.pool.workers", device_label)
            .set(static_cast<double>(pool->size()));
        reg.gauge("builder.pool.tasks", device_label)
            .set(static_cast<double>(pool->stats().tasks_run));
    }
}

Engine
Builder::buildUnoptimized(const nn::Network &net) const
{
    net.validate();
    std::vector<ExecutionStep> steps;
    for (const auto &l : net.layers()) {
        if (l.kind == nn::LayerKind::kInput)
            continue;
        Tactic t = unoptimizedTactic(net, l);
        ExecutionStep step;
        step.node_name = l.name;
        // Reuse the closest fused-op kind for reporting purposes.
        switch (l.kind) {
          case nn::LayerKind::kConvolution:
            step.kind = FusedOpKind::kConv;
            break;
          case nn::LayerKind::kDeconvolution:
            step.kind = FusedOpKind::kDeconv;
            break;
          case nn::LayerKind::kFullyConnected:
            step.kind = FusedOpKind::kFullyConnected;
            break;
          case nn::LayerKind::kPooling:
            step.kind = FusedOpKind::kPooling;
            break;
          case nn::LayerKind::kSoftmax:
            step.kind = FusedOpKind::kSoftmax;
            break;
          case nn::LayerKind::kConcat:
            step.kind = FusedOpKind::kConcat;
            break;
          default:
            step.kind = FusedOpKind::kEltwise;
            break;
        }
        step.tactic_name = t.name;
        step.kernels = std::move(t.kernels);
        step.precision = nn::Precision::kFp32;
        step.weight_plan_bytes = net.layerParamCount(l) * 4;
        step.weight_transfers = t.weight_transfers;
        steps.push_back(std::move(step));
    }

    std::vector<IoDesc> inputs;
    for (const auto &in : net.inputs()) {
        const auto &t = net.tensor(in);
        inputs.push_back({in, t.dims, t.dims.volume() * 4});
    }
    std::vector<IoDesc> outputs;
    for (const auto &out : net.outputs()) {
        const auto &t = net.tensor(out);
        outputs.push_back({out, t.dims, t.dims.volume() * 4});
    }
    return Engine(net.name(), device_.name, nn::Precision::kFp32,
                  config_.build_id, std::move(steps),
                  std::move(inputs), std::move(outputs));
}

} // namespace edgert::core

#include "serve/core.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/builder.hh"
#include "nn/model_zoo.hh"
#include "obs/trace.hh"
#include "runtime/context.hh"
#include "runtime/measure.hh"
#include "serve/predictor.hh"

namespace edgert::serve {

EngineSet
buildLadder(const gpusim::DeviceSpec &device, const LadderSpec &spec,
            core::TimingCache *timing_cache)
{
    core::BuilderConfig bcfg;
    bcfg.precision = spec.precision;
    bcfg.calibration_seed = spec.calibration_seed;
    bcfg.build_id = spec.build_id;
    bcfg.timing_cache = timing_cache;
    core::Builder builder(device, bcfg);
    EngineSet set;
    for (int b : engineBatchLadder(spec.max_batch)) {
        set.engines.push_back(
            builder.build(nn::buildZooModel(spec.model, b)));
        set.batches.push_back(b);
    }
    for (const auto &eng : set.engines) {
        LatencyPredictor pred(device);
        pred.calibrate(eng);
        set.service_s.push_back(pred.predictServiceSeconds(eng));
    }
    return set;
}

std::vector<int>
placeOnDevices(InstancePool &pool, int m, const ModelVersion &ver, int want)
{
    const std::vector<gpusim::DeviceSpec> &devices = pool.devices();
    std::vector<int> eq1(devices.size(), -1);
    for (std::size_t d = 0; d < devices.size(); d++) {
        if (!ver.availableOn(static_cast<int>(d)))
            continue;
        const EngineSet &set = ver.sets[d];
        eq1[d] = runtime::estimateMaxThreads(
            set.engines.front(), devices[d],
            runtime::ThroughputOptions::probe());
        pool.place(m, static_cast<int>(d), set.maxFootprintBytes(),
                   std::min(want, std::max(1, eq1[d])));
    }
    return eq1;
}

void
EventQueue::push(double t, Event::Kind kind, int target,
                 std::int64_t req)
{
    Event e;
    e.t = t;
    e.seq = seq_++;
    e.kind = kind;
    e.target = target;
    e.req = req;
    q_.push(e);
}

Event
EventQueue::pop()
{
    // An arrival wins a tie: a calendar holding every arrival from the
    // start would have given each one a lower push order than any
    // event scheduled during the loop.
    if (arrivalNext()) {
        const Arrival &a = arrivals_[next_++];
        Event e;
        e.t = a.t;
        e.req = a.id;
        return e;
    }
    Event e = q_.top();
    q_.pop();
    return e;
}

double
predictSojournSeconds(const std::vector<int> &members,
                      const std::vector<Instance> &instances,
                      const ModelVersions &versions,
                      const BatchPolicy &policy, int queued_ahead,
                      double now_s, double rate_hz,
                      std::vector<double> &free_s)
{
    if (members.empty())
        return 1e9; // nothing can serve this model

    // Expected wait for this request's own batch to fill: the slots
    // left after the backlog ahead of it is packed into full
    // batches, divided by the arrival rate, capped by the batcher's
    // timeout.
    const int max_batch = std::max(1, policy.max_batch);
    const double timeout_s = policy.timeout_us * 1e-6;
    const int slots_open = max_batch - 1 - (queued_ahead % max_batch);
    double fill_s = rate_hz > 1e-9
                        ? static_cast<double>(slots_open) / rate_hz
                        : timeout_s;
    fill_s = std::min(fill_s, timeout_s);

    // The request's own dispatch: its backlog remainder plus the
    // arrivals expected while the batcher coalesces — not a full
    // max_batch, or a lightly loaded server would predict the
    // worst-case batch service for every request and shed traffic
    // it could easily carry.
    const int growth =
        rate_hz > 0.0 ? static_cast<int>(rate_hz * fill_s) : 0;
    const int own_batch =
        std::min(max_batch, queued_ahead % max_batch + 1 + growth);

    // Greedily assign the backlog's full batches, then the
    // request's own batch, onto earliest-predicted-free instances.
    free_s.clear();
    for (int idx : members)
        free_s.push_back(std::max(
            instances[static_cast<std::size_t>(idx)].predicted_free_s,
            now_s));
    // Returns the chosen member's free time after a `batch` dispatch.
    auto assign = [&](int batch) {
        const auto i = static_cast<std::size_t>(
            std::min_element(free_s.begin(), free_s.end()) -
            free_s.begin());
        const EngineSet &set = ladderOf(
            versions, instances[static_cast<std::size_t>(members[i])]);
        return free_s[i] +=
               set.service_s[static_cast<std::size_t>(
                   set.indexFor(batch))];
    };
    for (int b = 0; b < queued_ahead / max_batch; b++)
        assign(max_batch);
    return std::max(0.0, assign(own_batch) - now_s) + fill_s;
}

namespace {

/** One enqueued dispatch, folded back once its device has run out. */
struct Pending
{
    PlannedDispatch *pd;
    runtime::InferenceHandle h;
};

/** A context of one (version, engine) on an instance, and the ops one
 *  dispatch through it enqueues. */
struct BoundEngine
{
    std::unique_ptr<runtime::ExecutionContext> ctx;
    std::size_t ops = 0;
};

/** One instance of a device being fed: its streams, its contexts and
 *  the first plan not yet enqueued. */
struct InstanceFeed
{
    int idx = 0;
    Instance *inst = nullptr;
    int release = 0;
    int compute = 0;
    int download = 0;
    std::size_t next = 0;
    // An instance keeps an old version's contexts alive through a
    // swap: batches planned on the incumbent drain on its contexts
    // while new batches run on the candidate's.
    std::map<std::pair<int, int>, BoundEngine> engines;

    bool fedAll() const { return next == inst->plan.size(); }

    /** Release time of the last plan enqueued. */
    double lastRelease() const { return inst->plan[next - 1].t_s; }
};

/** The context `pd` runs on, created on first use. */
BoundEngine &
engineFor(InstanceFeed &f, const PlannedDispatch &pd,
          gpusim::GpuSim &sim, const ModelVersions &versions,
          bool pipelined)
{
    BoundEngine &b = f.engines[{pd.version, pd.engine_idx}];
    if (!b.ctx) {
        const core::Engine &eng =
            versions[static_cast<std::size_t>(f.inst->model)]
                    [static_cast<std::size_t>(pd.version)]
                        .sets[static_cast<std::size_t>(f.inst->slot)]
                        .engines[static_cast<std::size_t>(
                            pd.engine_idx)];
        b.ctx = std::make_unique<runtime::ExecutionContext>(
            eng, sim, f.compute);
        // A release delay, four stage markers, the copies and the
        // kernels, and two cross-stream waits when pipelined.
        b.ops = 5 + eng.inputs().size() + eng.outputs().size() +
                static_cast<std::size_t>(eng.kernelCount()) +
                (pipelined ? 2 : 0);
    }
    return b;
}

/**
 * Replay one device's instances (`members`) on a fresh GpuSim, feeding
 * each instance one dispatch ahead of its release, then fold the stage
 * events back into the plans as seconds and extract what the report
 * needs before the simulator is destroyed.
 */
DeviceReplay
replayDevice(const gpusim::DeviceSpec &spec,
             obs::MetricRegistry &registry,
             const std::vector<int> &members,
             std::vector<Instance> &instances,
             const ModelVersions &versions, const ReplayOptions &options)
{
    const bool pipelined = options.pipelined;
    gpusim::GpuSim sim(spec, &registry);
    sim.setTraceMode(options.trace_mode, options.trace_sample_every);
    std::vector<InstanceFeed> feeds;
    feeds.reserve(members.size());
    std::size_t ops = 0;
    std::size_t dispatches = 0;
    for (int idx : members) {
        InstanceFeed f;
        f.idx = idx;
        f.inst = &instances[static_cast<std::size_t>(idx)];
        // The device's first instance releases on the default
        // stream; the rest get fresh ones, in instance order.
        f.release = feeds.empty() ? 0 : sim.createStream();
        f.compute = pipelined ? sim.createStream() : f.release;
        f.download = pipelined ? sim.createStream() : f.release;
        for (const PlannedDispatch &pd : f.inst->plan)
            ops += engineFor(f, pd, sim, versions, pipelined).ops;
        dispatches += f.inst->plan.size();
        feeds.push_back(std::move(f));
    }
    // The same trace capacity an upfront enqueue of every plan gets.
    sim.reserveTraceForOps(ops);

    std::vector<Pending> pending;
    pending.reserve(dispatches);
    auto enqueueNext = [&](InstanceFeed &f) {
        PlannedDispatch &pd = f.inst->plan[f.next++];
        sim.delayUntil(f.release, pd.t_s);
        runtime::ExecutionContext &ctx =
            *engineFor(f, pd, sim, versions, pipelined).ctx;
        // Serving always stages: the boundary markers are
        // timing-neutral, so the replay's event stream never
        // depends on whether anything reads them.
        pending.push_back(
            {&pd, pipelined
                      ? ctx.enqueueStagedPipelined(f.release, f.download)
                      : ctx.enqueueInference(/*staged=*/true)});
    };

    DeviceReplay out;
    for (InstanceFeed &f : feeds)
        if (!f.fedAll())
            enqueueNext(f);
    // Plan k+1 joins its streams before any of them can drain plan k,
    // whose release delay ends no earlier than its t_s (core.hh).
    for (;;) {
        bool unfed = false;
        double horizon = std::numeric_limits<double>::infinity();
        for (const InstanceFeed &f : feeds) {
            if (!f.fedAll()) {
                unfed = true;
                horizon = std::min(horizon, f.lastRelease());
            }
        }
        if (!unfed)
            break;
        sim.runBefore(horizon);
        for (InstanceFeed &f : feeds) {
            while (!f.fedAll() && f.lastRelease() <= horizon) {
                if (sim.streamIdle(f.release) ||
                    sim.streamIdle(f.compute) ||
                    sim.streamIdle(f.download))
                    panic("replayPlans: instance ", f.idx, " plan ",
                          f.next, " fed at t=", sim.nowSeconds(),
                          " after its streams drained");
                enqueueNext(f);
            }
        }
    }
    sim.run();
    for (const Pending &p : pending) {
        p.pd->begin_s = sim.eventSeconds(p.h.begin);
        p.pd->upload_done_s = sim.eventSeconds(p.h.upload_done);
        p.pd->compute_done_s = sim.eventSeconds(p.h.compute_done);
        p.pd->end_s = sim.eventSeconds(p.h.end);
    }
    out.util = sim.stats();
    out.sim = sim.simStats(); // before takeTrace: counts its capacity
    out.trace_mode = sim.traceMode();
    out.trace_sample_every = sim.traceSampleEvery();
    out.trace = sim.takeTrace();
    return out;
}

} // namespace

Replay
replayPlans(const std::vector<gpusim::DeviceSpec> &devices,
            std::vector<Instance> &instances,
            const ModelVersions &versions,
            const ReplayOptions &options)
{
    const int n = static_cast<int>(devices.size());
    const auto nd = static_cast<std::size_t>(n);
    Replay out;
    out.threads = std::min(std::max(1, options.threads), n);
    out.devices.resize(nd);
    std::vector<std::vector<int>> members(nd);
    for (std::size_t i = 0; i < instances.size(); i++)
        members[static_cast<std::size_t>(instances[i].device)]
            .push_back(static_cast<int>(i));
    std::vector<std::unique_ptr<obs::MetricRegistry>> registries;
    for (std::size_t d = 0; d < nd; d++)
        registries.push_back(std::make_unique<obs::MetricRegistry>());

    {
        EDGERT_SPAN(options.span,
                    {{"devices", std::to_string(n)},
                     {"threads", std::to_string(out.threads)}});
        // Each device is one task that builds, feeds, runs and
        // destroys its own simulator, so at most one simulator per
        // worker is alive.
        std::optional<ThreadPool> tp; // after what its tasks touch
        if (out.threads > 1)
            tp.emplace(out.threads);
        for (std::size_t d = 0; d < nd; d++) {
            auto task = [&, d] {
                out.devices[d] =
                    replayDevice(devices[d], *registries[d], members[d],
                                 instances, versions, options);
            };
            // A device with nothing to replay is not worth a handoff.
            const bool planned = std::any_of(
                members[d].begin(), members[d].end(), [&](int idx) {
                    return !instances[static_cast<std::size_t>(idx)]
                                .plan.empty();
                });
            if (tp && planned)
                tp->submit(task);
            else
                task();
        }
        if (tp) {
            tp->wait();
            out.pool = tp->stats();
        }
    }

    obs::MetricRegistry &global = obs::MetricRegistry::global();
    for (std::size_t d = 0; d < nd; d++)
        global.mergeFrom(*registries[d],
                         options.metric_prefixes.empty()
                             ? std::string()
                             : options.metric_prefixes[d]);
    return out;
}

std::vector<Request>
generateRequests(const std::vector<TrafficSpec> &models,
                 double duration_s, std::uint64_t seed)
{
    Rng root(seed);
    Rng workload_rng = root.fork("workload");
    std::vector<std::pair<double, int>> merged;
    for (std::size_t m = 0; m < models.size(); m++) {
        Rng rng = workload_rng.fork(static_cast<std::uint64_t>(m));
        for (double t :
             generateArrivals(models[m].arrivals, duration_s, rng))
            merged.emplace_back(t, static_cast<int>(m));
    }
    std::sort(merged.begin(), merged.end());
    std::vector<Request> requests;
    requests.reserve(merged.size());
    for (const auto &[t, m] : merged) {
        Request r;
        r.id = static_cast<std::int64_t>(requests.size());
        r.model = m;
        r.arrival_s = t;
        r.slo_ms = models[static_cast<std::size_t>(m)].slo_ms;
        requests.push_back(r);
    }
    return requests;
}

void
LatencySummary::summarize(const std::vector<double> &ms)
{
    if (ms.empty())
        return;
    mean_ms = mean(ms);
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    p50_ms = percentileSorted(sorted, 50.0);
    p95_ms = percentileSorted(sorted, 95.0);
    p99_ms = percentileSorted(sorted, 99.0);
    max_ms = *std::max_element(ms.begin(), ms.end());
}

void
Tally::add(const Request &r)
{
    offered++;
    if (r.outcome == Outcome::kShed)
        shed++;
    if (r.outcome != Outcome::kCompleted)
        return;
    completed++;
    latency_ms.push_back(r.latencyMs());
    if (r.sloMet())
        within_slo++;
}

void
TrafficStats::fill(const Tally &t, const FoldCounts &folded,
                   std::size_t m, double duration_s)
{
    offered = t.offered;
    shed = t.shed;
    completed = t.completed;
    slo_violations = completed - t.within_slo;
    batches = folded.batches[m];
    offered_qps = static_cast<double>(offered) / duration_s;
    goodput_qps = static_cast<double>(t.within_slo) / duration_s;
    mean_batch = folded.meanBatch(m);
    summarize(t.latency_ms);
}

void
LatencySummary::writeJson(JsonWriter &w, const char *key) const
{
    w.key(key).beginObject();
    w.field("mean", mean_ms);
    w.field("p50", p50_ms);
    w.field("p95", p95_ms);
    w.field("p99", p99_ms);
    w.field("max", max_ms);
    w.endObject();
}

std::vector<DeviceStats>
deviceStats(const InstancePool &pool, const Replay &replay,
            const std::string &prefix)
{
    const std::vector<gpusim::DeviceSpec> &devices = pool.devices();
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    std::vector<DeviceStats> out;
    for (std::size_t d = 0; d < devices.size(); d++) {
        const auto &spec = devices[d];
        const DeviceReplay &dr = replay.devices[d];
        DeviceStats s;
        s.device = spec.name;
        for (const auto &inst : pool.instances())
            if (inst.device == static_cast<int>(d))
                s.instances++;
        const gpusim::UtilStats &st = dr.util;
        s.sm_util_pct = st.smUtilizationPct(spec.sm_count);
        s.copy_busy_pct =
            st.window_s > 0.0 ? 100.0 * st.copy_busy_s / st.window_s
                              : 0.0;
        s.makespan_s = dr.sim.simulated_s;
        s.ram_used_bytes = pool.ramUsedBytes(static_cast<int>(d));
        s.ram_budget_bytes = pool.ramBudgetBytes(static_cast<int>(d));

        const obs::Labels labels = {{"device", spec.name},
                                    {"index", std::to_string(d)}};
        reg.gauge(prefix + ".device.sm_util_pct", labels)
            .set(s.sm_util_pct);
        reg.gauge(prefix + ".device.copy_busy_pct", labels)
            .set(s.copy_busy_pct);
        reg.gauge(prefix + ".device.instances", labels)
            .set(static_cast<double>(s.instances));
        gpusim::publishSimMetrics(dr.sim, labels);
        out.push_back(std::move(s));
    }
    return out;
}

void
writeDevicesJson(JsonWriter &w, const std::vector<DeviceStats> &devices)
{
    w.key("devices").beginArray();
    for (const DeviceStats &s : devices) {
        w.beginObject();
        w.field("device", s.device);
        w.field("instances", s.instances);
        w.field("sm_util_pct", s.sm_util_pct);
        w.field("copy_busy_pct", s.copy_busy_pct);
        w.field("makespan_s", s.makespan_s);
        w.field("ram_used_bytes", s.ram_used_bytes);
        w.field("ram_budget_bytes", s.ram_budget_bytes);
        w.endObject();
    }
    w.endArray();
}

void
saveReplayTrace(const std::string &path,
                const std::vector<gpusim::DeviceSpec> &devices,
                const Replay &replay,
                const std::vector<profile::SimSpan> &overlay,
                const std::string &overlay_name)
{
    std::vector<profile::NamedTrace> device_traces;
    for (std::size_t d = 0; d < devices.size(); d++) {
        const DeviceReplay &dr = replay.devices[d];
        profile::NamedTrace nt;
        nt.name = devices[d].name + "[" + std::to_string(d) + "]";
        nt.trace = &dr.trace;
        if (dr.trace_mode == gpusim::TraceMode::kSampled)
            nt.sample_every = dr.trace_sample_every;
        device_traces.push_back(std::move(nt));
    }
    profile::saveMergedChromeTrace(path, obs::Tracer::global().spans(),
                                   device_traces, overlay,
                                   overlay_name);
}

} // namespace edgert::serve

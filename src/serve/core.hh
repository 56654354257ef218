#ifndef EDGERT_SERVE_CORE_HH
#define EDGERT_SERVE_CORE_HH

/**
 * @file
 * The serving core: the two-phase machinery EdgeServe, EdgeFleet and
 * EdgeStream share. Each front-end owns its workload, its queues and
 * its report; everything below is the one copy they run:
 *
 *  - ladder build: a model's power-of-two engine ladder on one
 *    device, each engine calibrated by its own LatencyPredictor;
 *  - control plane: an event calendar (an arrival cursor merged with
 *    a heap of scheduled events), the admission predictor and the
 *    batch-cut loop that turns queued work into per-instance dispatch
 *    plans;
 *  - replay: per device, feed every instance's plan into a GpuSim one
 *    dispatch ahead of its release, fold the stage events back into
 *    the plans as seconds, keep a small per-device result and destroy
 *    the simulator;
 *  - completion fold: the plans' stage times back onto the requests
 *    or frames they carried, in one walk;
 *  - report pieces: request tables, the per-key tally of a request
 *    table, latency summaries, device stats and the merged
 *    chrome-trace export;
 *  - the phase skeleton (FrontEnd): one front-end run as an object
 *    whose control plane stops at any horizon and resumes.
 *
 * Versions index the same way in every front-end:
 * `versions[model][version].sets[slot]`, where a slot is a device
 * (serve, stream) or a device class shared by many nodes (fleet).
 */

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "nn/executor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "profile/trace_export.hh"
#include "serve/batcher.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"
#include "serve/workload.hh"

namespace edgert::core {
class TimingCache;
}

namespace edgert::serve {

/**
 * fatal() unless a run of `who` (e.g. "EdgeServe") has a model, a
 * positive finite duration and unique model names (per-model metric
 * labels would collide). `models` holds any config type with a `model`
 * name.
 */
template <class ModelConfigs>
void
validateModels(const char *who, const ModelConfigs &models,
               double duration_s)
{
    if (models.empty())
        fatal(who, " needs at least one --model");
    if (!(duration_s > 0.0) || !std::isfinite(duration_s))
        fatal(who, " duration must be positive and finite (got ",
              duration_s, ")");
    std::set<std::string> names;
    for (const auto &m : models)
        if (!names.insert(m.model).second)
            fatal("duplicate model '", m.model,
                  "' (metric labels would collide)");
}

/** One `name{model=...}` histogram handle per model of `models`, in
 *  model order, so every model's key is listed even if it records
 *  nothing. */
template <class ModelConfigs>
std::vector<obs::Histogram>
modelHistograms(const std::string &name, const ModelConfigs &models)
{
    std::vector<obs::Histogram> out;
    for (const auto &m : models)
        out.push_back(obs::MetricRegistry::global().histogram(
            name, {{"model", m.model}}));
    return out;
}

// ----------------------------------------------------------------
// Ladder build
// ----------------------------------------------------------------

/** What one engine ladder is built from. */
struct LadderSpec
{
    std::string model; //!< nn::buildZooModel name
    nn::Precision precision = nn::Precision::kFp16;
    std::uint64_t calibration_seed = 0;
    std::uint64_t build_id = 1;
    int max_batch = 8; //!< ladder covers [1, max_batch]
};

/**
 * Build `spec`'s engine ladder for `device` (one engine per
 * engineBatchLadder rung, jobs = 1 so builds are byte-reproducible)
 * and calibrate every engine's service time with its own fresh
 * LatencyPredictor. The calibration tables are deliberately not
 * shared across the ladder: a shared table leaves each engine with a
 * small systematic bias, and at saturation that bias accumulates in
 * the instances' predicted-free times until admission control reasons
 * about a timeline minutes adrift of the replay.
 */
EngineSet buildLadder(const gpusim::DeviceSpec &device,
                      const LadderSpec &spec,
                      core::TimingCache *timing_cache);

/** One engine build generation of a model: a ladder per slot. */
struct ModelVersion
{
    std::uint64_t build_id = 0;
    std::vector<EngineSet> sets; //!< per slot; empty = unavailable

    bool availableOn(int slot) const
    {
        return !sets[static_cast<std::size_t>(slot)].engines.empty();
    }
};

/** versions[model][version]; version 0 is the one a run starts on. */
using ModelVersions = std::vector<std::vector<ModelVersion>>;

/**
 * One version of a model: `spec`'s ladder on every slot of `slots`
 * that `mask` selects (null = every slot), in slot order; the other
 * slots stay empty, so the version is unavailable there. `cache(slot)`
 * is the timing cache of that slot's build (null = none).
 */
template <class CacheOf>
ModelVersion
buildVersion(const LadderSpec &spec,
             const std::vector<gpusim::DeviceSpec> &slots,
             const std::vector<bool> *mask, CacheOf cache)
{
    ModelVersion ver;
    ver.build_id = spec.build_id;
    for (std::size_t s = 0; s < slots.size(); s++)
        ver.sets.push_back(!mask || (*mask)[s]
                               ? buildLadder(slots[s], spec, cache(s))
                               : EngineSet{});
    return ver;
}

/**
 * Place model `m` on every device where `ver` holds its ladder: up
 * to `want` RAM-bounded instances per device, capped by the paper's
 * Eq. 1 concurrency bound (estimated with the shared
 * ThroughputOptions::probe() knob set). Returns that bound per
 * device, -1 where the model has no ladder.
 */
std::vector<int> placeOnDevices(InstancePool &pool, int m,
                                const ModelVersion &ver, int want);

// ----------------------------------------------------------------
// Control plane
// ----------------------------------------------------------------

/** Control-plane discrete event. */
struct Event
{
    enum Kind {
        kArrival,   //!< request arrival / frame ready
        kTimeout,   //!< batch timeout of one queue
        kPredFree,  //!< predicted completion of an instance
        kSwapBegin, //!< serve: hot-swap trigger
        kSwapReady, //!< serve: hot-swap warmup done
        kFail,      //!< fleet: node failure
        kRejoin,    //!< fleet: node rejoin
        kStage,     //!< fleet: rollout stage
    };

    double t = 0.0;
    std::int64_t seq = 0; //!< push order of a scheduled event
    Kind kind = kArrival;
    int target = 0;        //!< queue, instance, swap, node or rollout
    std::int64_t req = -1; //!< request/frame id or rollout stage index
};

/**
 * Time-ordered event calendar. The arrivals are given up front, in pop
 * order, and read through a cursor; the heap holds only the events
 * scheduled while the loop runs, which pop by (t, push order). On
 * equal t an arrival pops first.
 */
class EventQueue
{
  public:
    /** One arrival: its time and its request (or frame) id. Orders
     *  by (t, id). */
    struct Arrival
    {
        double t = 0.0;
        std::int64_t id = 0;

        auto operator<=>(const Arrival &) const = default;
    };

    explicit EventQueue(std::vector<Arrival> arrivals = {})
        : arrivals_(std::move(arrivals))
    {}

    /** Schedule a non-arrival event. */
    void push(double t, Event::Kind kind, int target,
              std::int64_t req = -1);

    bool empty() const
    {
        return next_ == arrivals_.size() && q_.empty();
    }

    /** The time of the event pop() returns next; +inf when empty. */
    double nextTime() const
    {
        if (arrivalNext())
            return arrivals_[next_].t;
        return q_.empty() ? std::numeric_limits<double>::infinity()
                          : q_.top().t;
    }

    Event pop();

  private:
    /** Whether the next pop is an arrival: an arrival wins a tie. */
    bool arrivalNext() const
    {
        return next_ < arrivals_.size() &&
               (q_.empty() || arrivals_[next_].t <= q_.top().t);
    }

    struct After
    {
        bool operator()(const Event &a, const Event &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.seq > b.seq;
        }
    };

    std::vector<Arrival> arrivals_;
    std::size_t next_ = 0; //!< first arrival not yet popped
    std::priority_queue<Event, std::vector<Event>, After> q_;
    std::int64_t seq_ = 0;
};

/** The engine ladder new dispatches of `inst` run on: its version's
 *  set for its slot. */
inline const EngineSet &
ladderOf(const ModelVersions &versions, const Instance &inst)
{
    return versions[static_cast<std::size_t>(inst.model)]
                   [static_cast<std::size_t>(inst.version)]
                       .sets[static_cast<std::size_t>(inst.slot)];
}

/**
 * Predicted sojourn (seconds from `now_s` to completion) of a request
 * arriving now at a queue served by `members` (indices into
 * `instances`), given `queued_ahead` admitted requests already
 * waiting. Greedily packs the backlog into full max_batch dispatches
 * onto earliest-predicted-free instances; the request's own batch is
 * sized by its backlog remainder plus the arrivals expected within the
 * batching timeout, and the expected batch-fill wait min(timeout,
 * slots-remaining / arrival-rate) is added on top. Each instance is
 * scored with the calibrated service times of its own ladder
 * (ladderOf), whose rungs cover `policy.max_batch`. No members: 1e9.
 * `free_s` is the caller's scratch, one entry per member; whatever
 * it holds on entry is overwritten, so one buffer kept across calls
 * makes a prediction allocation-free.
 */
double predictSojournSeconds(const std::vector<int> &members,
                             const std::vector<Instance> &instances,
                             const ModelVersions &versions,
                             const BatchPolicy &policy,
                             int queued_ahead, double now_s,
                             double rate_hz,
                             std::vector<double> &free_s);

/** Record a planned dispatch of `inst` (pool index `instance`) on
 *  each of its requests: cut time, batch, device, instance and
 *  engine version. */
void stampRequests(std::vector<Request> &requests, const Instance &inst,
                   const PlannedDispatch &pd, int instance);

// ----------------------------------------------------------------
// Replay
// ----------------------------------------------------------------

/** How replayPlans runs. */
struct ReplayOptions
{
    const char *span = "replay"; //!< host span around the replay
    int threads = 1;             //!< clamped to [1, devices]
    gpusim::TraceMode trace_mode = gpusim::TraceMode::kFull;
    int trace_sample_every = 16;

    /**
     * false: each instance replays on one stream with the staged
     * enqueue (upload / compute boundary events). true: each
     * instance owns an upload, a compute and a download stream and
     * replays through enqueueStagedPipelined, so consecutive
     * dispatches overlap stage-wise.
     */
    bool pipelined = false;

    /** Metric-name prefix of device d's registry when merged into
     *  the global one; empty = "" for every device. */
    std::vector<std::string> metric_prefixes;
};

/** What the report needs of one device's simulator, extracted before
 *  the simulator is destroyed. */
struct DeviceReplay
{
    gpusim::UtilStats util;  //!< utilization over the whole run
    gpusim::SimStats sim;    //!< self-measurement; makespan = simulated_s
    std::vector<gpusim::OpRecord> trace; //!< moved out of the sim
    gpusim::TraceMode trace_mode = gpusim::TraceMode::kFull;
    int trace_sample_every = 16;
};

/** The outcome of one replay, per device. */
struct Replay
{
    std::vector<DeviceReplay> devices;
    int threads = 1; //!< workers actually used
    PoolStats pool;  //!< worker task count when threads > 1
};

/**
 * Phase 2 — replay every instance's plan on its device. Each device is
 * one task that creates a GpuSim recording into a private
 * MetricRegistry, feeds it, runs it out, folds the stage events back
 * into every PlannedDispatch as seconds, extracts its DeviceReplay and
 * destroys the simulator. The caller enqueues nothing.
 *
 * The feed is just in time. Each instance's first plan is enqueued
 * (delayUntil pins its release; contexts are cached per (version,
 * engine)). Then, repeatedly, with H the smallest release among the
 * plans whose successor is still unfed, the simulator runs every event
 * strictly before H (GpuSim::runBefore) and every plan whose
 * predecessor releases at or before H joins its streams. A stream
 * drains plan k no earlier than plan k's release, so plan k+1 is
 * always queued before its streams could go idle, and the replay is
 * exactly the one an upfront enqueue of every plan gives. The feeder
 * panics if that invariant ever fails (GpuSim::streamIdle). Op storage
 * is O(instances x 2 plans) instead of O(simulated duration).
 *
 * With threads > 1, devices with plans go to a pool of that many
 * workers, so at most one simulator per worker is alive; devices with
 * no plans, and every device when threads <= 1, run inline. Devices
 * share nothing; the private registries merge into the global one in
 * device index order afterwards, so every observable is byte-identical
 * at any thread count.
 */
Replay replayPlans(const std::vector<gpusim::DeviceSpec> &devices,
                   std::vector<Instance> &instances,
                   const ModelVersions &versions,
                   const ReplayOptions &options);

// ----------------------------------------------------------------
// Completion fold
// ----------------------------------------------------------------

/** Per-model dispatch totals of a replay. */
struct FoldCounts
{
    std::vector<std::int64_t> batches;    //!< planned dispatches
    std::vector<std::int64_t> dispatched; //!< requests they carried

    /** Mean requests per dispatch of model `m`; 0 without any. */
    double meanBatch(std::size_t m) const
    {
        return batches[m] > 0 ? static_cast<double>(dispatched[m]) /
                                    static_cast<double>(batches[m])
                              : 0.0;
    }
};

/** foldReplay's default per-plan hook: none. */
struct NoPlanHook
{
    void operator()(const Instance &, const PlannedDispatch &) const {}
};

/**
 * Fold a replay's measured completions into `recs`, a table indexed by
 * request id (serve::Request or a stream frame): one walk over the
 * instances, then their plans. Every record a plan carries gets
 * outcome `completed` and the plan's begin_s, upload_done_s,
 * compute_done_s and end_s (as done_s); records no plan carries stay
 * untouched. `on_plan(instance, plan)` sees every plan in walk order.
 * Plans are only ever appended by cutBatches, so the returned counts
 * over `n_models` models are the dispatches the control plane made.
 */
template <class Rec, class Done, class OnPlan = NoPlanHook>
FoldCounts
foldReplay(const std::vector<Instance> &instances, int n_models,
           std::vector<Rec> &recs, Done completed, OnPlan on_plan = {})
{
    FoldCounts fc;
    fc.batches.assign(static_cast<std::size_t>(n_models), 0);
    fc.dispatched.assign(static_cast<std::size_t>(n_models), 0);
    for (const Instance &inst : instances) {
        const auto m = static_cast<std::size_t>(inst.model);
        for (const PlannedDispatch &pd : inst.plan) {
            fc.batches[m]++;
            fc.dispatched[m] += pd.batch;
            on_plan(inst, pd);
            for (std::int64_t id : inst.idsOf(pd)) {
                Rec &r = recs[static_cast<std::size_t>(id)];
                r.outcome = completed;
                r.begin_s = pd.begin_s;
                r.upload_done_s = pd.upload_done_s;
                r.compute_done_s = pd.compute_done_s;
                r.done_s = pd.end_s;
            }
        }
    }
    return fc;
}

// ----------------------------------------------------------------
// Report pieces
// ----------------------------------------------------------------

/** One model's traffic contract, for generateRequests. */
struct TrafficSpec
{
    ArrivalConfig arrivals;
    double slo_ms = 0.0;
};

/**
 * Per-model arrival streams from forked Rng streams (root seed →
 * "workload" → model index), merged into one id-ordered table.
 */
std::vector<Request>
generateRequests(const std::vector<TrafficSpec> &models,
                 double duration_s, std::uint64_t seed);

/** mean / p50 / p95 / p99 / max of a latency sample, ms. */
struct LatencySummary
{
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;

    /** Summarize `ms`; an empty sample leaves every field 0. */
    void summarize(const std::vector<double> &ms);

    /** Member `"<key>": {"mean": .., "p50": .., ...}`, one field
     *  per line. */
    void writeJson(JsonWriter &w, const char *key) const;
};

/**
 * Outcome counts and latency sample of one slice of a request table.
 * A front-end fills every tally it reports in one pass over the table
 * in id order, adding each request under the keys it chooses (model,
 * version, group, ...), so each sample is in request-id order, as a
 * per-key rescan of the table would collect it.
 */
struct Tally
{
    std::int64_t offered = 0;
    std::int64_t shed = 0;
    std::int64_t completed = 0;
    std::int64_t within_slo = 0;
    std::vector<double> latency_ms; //!< completed requests, id order

    void add(const Request &r);
};

/** One model's traffic outcome, as serve and fleet report it; the
 *  LatencySummary is over the model's completed requests. */
struct TrafficStats : LatencySummary
{
    std::int64_t offered = 0;
    std::int64_t shed = 0;
    std::int64_t completed = 0;
    std::int64_t slo_violations = 0;
    std::int64_t batches = 0;
    double offered_qps = 0.0; //!< measured offered rate
    double goodput_qps = 0.0; //!< completions within SLO per second
    double mean_batch = 0.0;

    /** Every field from model `m`'s tally and fold counts over a run
     *  of `duration_s`. */
    void fill(const Tally &t, const FoldCounts &folded, std::size_t m,
              double duration_s);
};

/** Per-device replay outcome (serve and stream). */
struct DeviceStats
{
    std::string device;
    int instances = 0;
    double sm_util_pct = 0.0;   //!< tegrastats GR3D analogue
    double copy_busy_pct = 0.0;
    double makespan_s = 0.0;    //!< drain time of the replay
    std::int64_t ram_used_bytes = 0;
    std::int64_t ram_budget_bytes = 0;
};

/**
 * Stats of every device of `pool` from a replay's per-device results,
 * with `<prefix>.device.{sm_util_pct,copy_busy_pct,instances}` gauges
 * and the simulator's own `sim.*` gauges (gpusim::publishSimMetrics),
 * all labeled {device, index}.
 */
std::vector<DeviceStats> deviceStats(const InstancePool &pool,
                                     const Replay &replay,
                                     const std::string &prefix);

/** Member `"devices": [...]`, one object per device. */
void writeDevicesJson(JsonWriter &w,
                      const std::vector<DeviceStats> &devices);

/**
 * Merged chrome://tracing timeline: host spans, one process per
 * device named `<device>[<index>]`, and optional simulated-clock
 * overlay spans under `overlay_name`.
 */
void saveReplayTrace(const std::string &path,
                     const std::vector<gpusim::DeviceSpec> &devices,
                     const Replay &replay,
                     const std::vector<profile::SimSpan> &overlay,
                     const std::string &overlay_name);

// ----------------------------------------------------------------
// Phase skeleton
// ----------------------------------------------------------------

/**
 * One run of a front-end (EdgeServe, EdgeFleet, EdgeStream) as an
 * object whose control plane can stop at a horizon and resume. The
 * front-end's constructor validates, builds, places and generates the
 * workload; controlUntil() advances the control plane; finish()
 * replays, folds and reports. Phase spans are named `<front>_<phase>`.
 * This holds the engine versions, the instance pool, the calendar, one
 * batcher per model and the batch timeout of every queue; the
 * front-end holds its queues and its request or frame table.
 */
template <class Report>
class FrontEnd
{
  public:
    FrontEnd(const FrontEnd &) = delete;
    FrontEnd &operator=(const FrontEnd &) = delete;
    virtual ~FrontEnd() = default;

    /**
     * Handle every calendar event before `t`, in calendar order, then
     * return; t = +inf drains the calendar. A window boundary only
     * pauses between two pops, so the events handled and their order
     * do not depend on how the control plane is cut into windows.
     */
    void controlUntil(double t)
    {
        const obs::ScopedSpan s = span("control");
        const bool drain = t == std::numeric_limits<double>::infinity();
        while (!events_.empty() && (drain || events_.nextTime() < t))
            onEvent(events_.pop());
    }

    /** Every instance with its plan and id pool so far. */
    const std::vector<Instance> &instances() const
    {
        return pool_.instances();
    }

    /** Replay, fold and report; call once, after controlUntil(+inf). */
    virtual Report finish() = 0;

  protected:
    /** `unit` ("requests", "frames") counts the table in the control
     *  and fold spans. */
    FrontEnd(const char *front, const char *unit, int n_models,
             const std::vector<gpusim::DeviceSpec> &devices,
             double ram_fraction)
        : front_(front), unit_(unit), n_models_(n_models),
          versions_(static_cast<std::size_t>(n_models)),
          pool_(devices, ram_fraction)
    {}

    virtual void onEvent(const Event &e) = 0;

    /** Size of the request or frame table. */
    virtual std::size_t units() const = 0;

    obs::ScopedSpan span(const char *phase) const
    {
        return obs::ScopedSpan(std::string(front_) + "_" + phase,
                               {{unit_, std::to_string(units())}});
    }

    obs::ScopedSpan modelSpan(const char *phase) const
    {
        return obs::ScopedSpan(std::string(front_) + "_" + phase,
                               {{"models", std::to_string(n_models_)}});
    }

    /** One batcher per model from its batch policy (FIFO single
     *  dispatch when `batching` is off) and `n_queues` disarmed batch
     *  timeouts. */
    template <class ModelConfigs>
    void setQueues(const ModelConfigs &models, std::size_t n_queues,
                   bool batching = true)
    {
        for (const auto &mc : models) {
            BatchPolicy p = mc.batching;
            if (!batching) {
                p.max_batch = 1;
                p.timeout_us = 0.0;
            }
            batchers_.emplace_back(p);
        }
        armed_for_.assign(n_queues, -1);
    }

    /** The workload of serve and fleet: one id-ordered request table
     *  over `models`' traffic, whose arrivals, in id order, become the
     *  calendar's (generateRequests makes id order time order). */
    template <class ModelConfigs>
    std::vector<Request> loadRequests(const ModelConfigs &models,
                                      double duration_s,
                                      std::uint64_t seed)
    {
        std::vector<TrafficSpec> traffic;
        for (const auto &mc : models)
            traffic.push_back({mc.arrivals, mc.slo_ms});
        std::vector<Request> requests;
        {
            const obs::ScopedSpan s = modelSpan("workload");
            requests = generateRequests(traffic, duration_s, seed);
        }
        std::vector<EventQueue::Arrival> arrivals;
        arrivals.reserve(requests.size());
        for (const Request &r : requests)
            arrivals.push_back({r.arrival_s, r.id});
        events_ = EventQueue(std::move(arrivals));
        return requests;
    }

    /**
     * The batch-cut loop of queue `slot`, batched by model `m`'s
     * batcher, at time `t`. While work is queued and `pick(t)` names a
     * predicted-free instance, the batcher decides a cut; the cut's ids
     * move onto the end of that instance's id pool, the cut is planned
     * on the instance at the smallest fitting engine of its version and
     * slot, `stamp(instance, pd, index)` records it in the caller's
     * tables, and the instance's predicted-free event is scheduled.
     * Then the queue's batch timeout (event target `slot`) is re-armed
     * when its front changed. `Queue` is a RequestQueue or a
     * stream::StreamQueue; `oldest` is its oldest-entry accessor.
     */
    template <class Queue, class Pick, class Stamp>
    void cut(Queue &q, double (Queue::*oldest)() const, int m,
             std::size_t slot, double t, Pick pick, Stamp stamp)
    {
        const DynamicBatcher &batcher =
            batchers_[static_cast<std::size_t>(m)];
        std::vector<Instance> &instances = pool_.instances();
        while (!q.empty()) {
            const int idx = pick(t);
            if (idx < 0)
                break;
            const int n = batcher.decide(q.size(), (q.*oldest)(), t);
            if (n == 0)
                break;
            Instance &inst = instances[static_cast<std::size_t>(idx)];
            const EngineSet &set = ladderOf(versions_, inst);
            if (inst.ids.size() >
                std::numeric_limits<std::uint32_t>::max())
                panic("instance ", idx,
                      " id pool outgrew 32-bit offsets");
            PlannedDispatch pd;
            pd.t_s = t;
            pd.engine_idx = set.indexFor(n);
            pd.version = inst.version;
            pd.batch = n;
            pd.first_id = static_cast<std::uint32_t>(inst.ids.size());
            q.cut(n, inst.ids);
            pd.predicted_service_s =
                set.service_s[static_cast<std::size_t>(pd.engine_idx)];
            stamp(std::as_const(inst), pd, idx);
            inst.predicted_free_s = t + pd.predicted_service_s;
            inst.plan.push_back(pd);
            events_.push(inst.predicted_free_s, Event::kPredFree, idx);
        }
        if (!q.empty() && q.frontId() != armed_for_[slot]) {
            armed_for_[slot] = q.frontId();
            events_.push(batcher.deadlineFor((q.*oldest)()),
                         Event::kTimeout, static_cast<int>(slot));
        }
    }

    /** The model whose queue a kTimeout or kPredFree event wakes when
     *  every model has one queue (serve, stream). */
    int eventModel(const Event &e) const
    {
        return e.kind == Event::kTimeout
                   ? e.target
                   : pool_.instances()[static_cast<std::size_t>(e.target)]
                         .model;
    }

    /** Replay options from a config's threads and trace policy (serve,
     *  stream): only its trace_out timeline reads device traces, so
     *  without one the replay records none. */
    template <class Config>
    static ReplayOptions tracedReplay(const Config &cfg)
    {
        ReplayOptions ro;
        ro.threads = cfg.sim_threads;
        ro.trace_mode = cfg.trace_out.empty() ? gpusim::TraceMode::kOff
                                              : cfg.trace_mode;
        ro.trace_sample_every = cfg.trace_sample_every;
        return ro;
    }

    /** replayPlans over the pool in span `<front>_replay`, once the
     *  calendar is drained. */
    Replay replay(ReplayOptions options)
    {
        if (!events_.empty())
            panic(front_, ": replay before the control plane drained");
        const std::string name = std::string(front_) + "_replay";
        options.span = name.c_str();
        return replayPlans(pool_.devices(), pool_.instances(), versions_,
                           options);
    }

    /** foldReplay of the pool into `recs` in span `<front>_fold`. */
    template <class Rec, class Done, class OnPlan = NoPlanHook>
    FoldCounts fold(std::vector<Rec> &recs, Done completed,
                    OnPlan on_plan = {}) const
    {
        const obs::ScopedSpan s = span("fold");
        return foldReplay(pool_.instances(), n_models_, recs, completed,
                          on_plan);
    }

    const char *front_;
    const char *unit_;
    int n_models_;
    ModelVersions versions_;
    InstancePool pool_;
    EventQueue events_;
    std::vector<DynamicBatcher> batchers_; //!< per model
    /** Per queue: the front id its batch timeout is armed for. */
    std::vector<std::int64_t> armed_for_;
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_CORE_HH

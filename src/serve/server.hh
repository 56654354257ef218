#ifndef EDGERT_SERVE_SERVER_HH
#define EDGERT_SERVE_SERVER_HH

/**
 * @file
 * EdgeServe: a Triton-style inference server over the simulated
 * edge devices.
 *
 * A run is two deterministic phases over the same dispatch plan:
 *
 *  1. Control: a discrete-event loop over arrivals, batch timeouts
 *     and predicted instance completions. Admission control and the
 *     dynamic batcher act on BSP-*predicted* service times (a real
 *     server also decides on estimates — it cannot observe a
 *     dispatch's duration before issuing it), producing a dispatch
 *     plan: (instance, release time, engine, request ids).
 *  2. Replay: each device's plan executes in its GpuSim with
 *     delayUntil() pinning every dispatch's release time, one run()
 *     per device. Completion times — and therefore all reported
 *     latencies, SLO verdicts and utilizations — come from the
 *     simulator with full cross-stream contention, not from the
 *     predictions.
 *
 * Everything is a pure function of (config, seed): arrivals flow
 * from common::Rng, both phases run on simulated clocks, and no
 * wall-clock is ever read.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "nn/executor.hh"
#include "serve/core.hh"
#include "serve/queue.hh"
#include "serve/workload.hh"
#include "watch/watch.hh"

namespace edgert::serve {

/** One served model and its traffic contract. */
struct ModelConfig
{
    std::string model;       //!< nn::buildZooModel name
    double slo_ms = 50.0;    //!< end-to-end deadline
    ArrivalConfig arrivals;  //!< offered-load process
    BatchPolicy batching;    //!< dynamic-batcher knobs
    int instances_per_device = 1;

    /** Serving precision of this model's engine ladder. The pool
     *  and the latency predictor calibrate per (device, engine,
     *  precision) — an INT8 ladder is a different set of engines
     *  with different fingerprints, latencies and RAM footprints
     *  than the FP16 one. */
    nn::Precision precision = nn::Precision::kFp16;

    /** Calibration-batch identity for @int8 / @mixed ladders. */
    std::uint64_t calibration_seed = 0;
};

/**
 * Injected engine-load faults for resilience testing. A server that
 * loads opaque plan blobs must expect some of them to be corrupt or
 * missing; these knobs simulate that without touching the disk. A
 * failed load is retried (a "rebuild") up to max_load_attempts per
 * (model, device); a model whose loads keep failing everywhere is
 * degraded — its traffic is shed per-model while every other model
 * keeps serving. Failures are counted in the metric registry as
 * `serve.engine.load_failures{model=...}`.
 */
struct FaultInjection
{
    /** Model name → number of initial engine-load attempts that
     *  fail before loads for that model succeed again. */
    std::map<std::string, int> engine_load_failures;

    /**
     * Model name → number of *swap-time* candidate-load attempts
     * that fail (a separate budget so a fault can target the swap
     * path while the initial placement succeeds). A candidate whose
     * load keeps failing rolls the swap back to the incumbent.
     */
    std::map<std::string, int> swap_load_failures;

    /** Load attempts per (model, device) before the scheduler
     *  gives up on that placement (first try + rebuilds). */
    int max_load_attempts = 2;
};

/**
 * One scheduled mid-run engine hot-swap (the deploy layer's
 * HotSwapper hands these to the server after the drift gate has
 * accepted a candidate). At t_s the server loads the candidate
 * build for the model, pauses that model's dispatch while the
 * candidate warms up (context creation, weight upload, canary
 * runs) — queued requests wait, none are dropped — and then either
 * commits (new batches go to the candidate; in-flight incumbent
 * batches drain) or rolls back to the incumbent when the
 * candidate's canary latency regresses beyond the threshold.
 */
struct SwapSpec
{
    std::string model;                  //!< must match a ModelConfig
    double t_s = 0.0;                   //!< trigger time (seconds)
    std::uint64_t candidate_build_id = 0;

    /**
     * Precision of the candidate ladder. Unset (the default) keeps
     * the model's serving precision; set it for a cross-precision
     * swap — e.g. promoting a drift-gated INT8 candidate over the
     * FP16 incumbent.
     */
    std::optional<nn::Precision> precision;

    /** Calibration seed of the candidate (INT8/mixed swaps). */
    std::uint64_t calibration_seed = 0;
};

/** Whole-server configuration. */
struct ServeConfig
{
    std::vector<ModelConfig> models;
    std::vector<gpusim::DeviceSpec> devices;
    double duration_s = 10.0;
    std::uint64_t seed = 1;
    bool admission_control = true;

    /** false forces max_batch = 1 (no-batching baseline policy). */
    bool dynamic_batching = true;

    /** Share of device RAM available for execution contexts. */
    double ram_fraction = 0.5;

    /** Builder seed of the engines the run starts with. */
    std::uint64_t build_id = 1;

    /**
     * When non-empty, write a merged chrome://tracing timeline
     * (host serve spans + one process per device) here after the
     * replay.
     */
    std::string trace_out;

    /**
     * Worker threads for the phase-2 replay. 1 (the default)
     * replays devices serially in index order; >1 replays
     * independent devices concurrently on a common::ThreadPool.
     * Reports, metric snapshots and device traces are byte-identical
     * across thread counts: each device's simulator records into a
     * private MetricRegistry, merged into the global one in device
     * index order afterwards (see serve::replayPlans).
     */
    int sim_threads = 1;

    /** Per-device kernel-trace policy for the trace_out timeline.
     *  kFull keeps every record; kSampled keeps one in
     *  trace_sample_every; kOff records nothing. Without trace_out
     *  the replay records nothing, whatever the mode. */
    gpusim::TraceMode trace_mode = gpusim::TraceMode::kFull;
    int trace_sample_every = 16;

    /** Injected engine-load faults (empty = none). */
    FaultInjection faults;

    /** Mid-run engine hot-swaps to execute (empty = none). */
    std::vector<SwapSpec> swaps;

    /**
     * EdgeWatch: request-scoped tracing, sliding-window SLO burn
     * rates with page/warn alerts, flight-recorder incident dumps
     * and F4/F5 latency-inversion detection. watch.enabled = false
     * (the default) leaves the run — report bytes included —
     * exactly as before.
     */
    watch::WatchConfig watch;
};

/** Per-engine-version serving outcome within one model. */
struct VersionStats
{
    std::uint64_t build_id = 0;
    std::uint64_t fingerprint = 0; //!< batch-1 engine fingerprint
    std::int64_t batches = 0;
    std::int64_t completed = 0;
    double mean_ms = 0.0;
    double p99_ms = 0.0;
};

/** Per-model serving outcome. */
struct ModelStats : TrafficStats
{
    std::string model;
    double slo_ms = 0.0;
    double predictor_mae_pct = 0.0; //!< mean |pred-meas|/meas x 100
    int instances = 0;

    /** Engine-load failures observed while placing this model. */
    std::int64_t load_failures = 0;

    /** Loads that succeeded only after at least one retry. */
    std::int64_t rebuilds = 0;

    /** True when the model loaded on no device: every request for
     *  it was shed, but the rest of the fleet kept serving. */
    bool degraded = false;

    // ---- engine-lifecycle (hot-swap) outcome ----

    /** build_id serving this model's new batches at end of run. */
    std::uint64_t active_build_id = 0;

    std::int64_t swaps = 0;           //!< swap attempts executed
    std::int64_t swaps_rolled_back = 0;
    double swap_downtime_ms = 0.0;    //!< summed pause windows

    /** Machine-readable reason of the last rollback ("" = none):
     *  load_failure | latency_regression | model_degraded |
     *  overlapping_swap. */
    std::string swap_rollback_reason;

    /** p99 of requests arriving inside a swap window vs outside. */
    double p99_swap_ms = 0.0;
    double p99_steady_ms = 0.0;

    /** Per engine-version breakdown, load order (index 0 is the
     *  engine the run started with). */
    std::vector<VersionStats> versions;
};

/** Full report of one EdgeServe run. */
struct ServeReport
{
    std::uint64_t seed = 0;
    double duration_s = 0.0;
    bool admission_control = false;
    bool dynamic_batching = false;
    std::vector<ModelStats> models;
    std::vector<DeviceStats> devices;

    /** EdgeWatch outcome; serialized (as a trailing "watch" key)
     *  only when watch.enabled, so watch-off reports keep their
     *  pre-watch bytes. */
    watch::WatchSummary watch;

    /** Canonical JSON (deterministic field order and numbers). */
    std::string toJson() const;
};

/** Parse a device list entry: "nx" | "agx". */
gpusim::DeviceSpec parseDevice(const std::string &name);

/** One EdgeServe run, built, placed and loaded with its workload and
 *  hot-swaps, ready for controlUntil(); `cfg` must outlive it. */
std::unique_ptr<FrontEnd<ServeReport>>
startServer(const ServeConfig &cfg);

/** Run the server; deterministic for a fixed config. */
ServeReport runServer(const ServeConfig &cfg);

} // namespace edgert::serve

#endif // EDGERT_SERVE_SERVER_HH

#ifndef EDGERT_STREAM_STREAM_HH
#define EDGERT_STREAM_STREAM_HH

/**
 * @file
 * EdgeStream: continuous camera-stream serving on the simulated
 * edge fleet.
 *
 * A run is the serve layer's two deterministic phases applied to a
 * frame pipeline instead of a request stream:
 *
 *  1. Control: frame capture times come from seeded FrameSources;
 *     decode and preprocess are modeled host stages chained per
 *     camera stream; ready frames enter a per-model StreamQueue
 *     under a backpressure policy, and a discrete-event loop over
 *     (frame-ready, batch-timeout, predicted-free) events cuts
 *     batches across streams through the DynamicBatcher onto
 *     InstancePool instances — producing each instance's dispatch
 *     plan. The control clock stops producing work at duration_s:
 *     frames still queued (or still decoding) then are `in_flight`.
 *  2. Replay: each instance owns THREE device streams — upload,
 *     compute, download — and every dispatch replays through
 *     ExecutionContext::enqueueStagedPipelined with delayUntil
 *     pinning its release on the upload stream. waitEvent chains
 *     upload → compute → download, so frame i+1's upload overlaps
 *     frame i's compute, which overlaps frame i-1's download — the
 *     paper's copy/compute overlap at pipeline depth 3. Measured
 *     completions feed postprocess chains and every reported
 *     statistic.
 *
 * Everything is a pure function of (config, seed): reports are
 * byte-identical across runs and across sim_threads values.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "nn/executor.hh"
#include "serve/core.hh"
#include "serve/queue.hh"
#include "stream/freshness.hh"
#include "stream/pipeline.hh"
#include "stream/source.hh"
#include "watch/slo.hh"
#include "watch/watch.hh"

namespace edgert::stream {

/** One streamed model: its cameras, stages and serving contract. */
struct StreamModelConfig
{
    std::string model; //!< nn::buildZooModel name
    nn::Precision precision = nn::Precision::kFp16;
    std::uint64_t calibration_seed = 0;

    int streams = 4;    //!< independent camera streams
    double fps = 30.0;  //!< per-stream nominal frame rate
    FrameArrival arrival = FrameArrival::kFixedFps;
    double arrival_jitter_pct = 10.0;

    /** Freshness SLO: a frame older than this at postprocess-done
     *  is stale. */
    double stale_ms = 100.0;

    BackpressurePolicy policy = BackpressurePolicy::kDropOldest;
    int frame_budget = 4; //!< queued frames per stream (drop_oldest)

    StageModel stages;
    serve::BatchPolicy batching;
    int instances_per_device = 1;
};

/** Whole-run configuration. */
struct StreamConfig
{
    std::vector<StreamModelConfig> models;
    std::vector<gpusim::DeviceSpec> devices;
    double duration_s = 5.0;
    std::uint64_t seed = 1;

    /** Share of device RAM available for execution contexts. */
    double ram_fraction = 0.5;

    std::uint64_t build_id = 1;

    /** Replay worker threads; reports and metric snapshots are
     *  byte-identical for any value (each device's simulator records
     *  into a private registry merged in device order, as in serve). */
    int sim_threads = 1;

    /** Kernel-trace policy for the trace_out timeline, as in
     *  serve::ServeConfig; without trace_out nothing is recorded. */
    gpusim::TraceMode trace_mode = gpusim::TraceMode::kFull;
    int trace_sample_every = 16;

    /** Merged chrome://tracing timeline path ("" = off). */
    std::string trace_out;

    /** Per-stream freshness burn-rate report path ("" = no file).
     *  The per-(model, stream) SloTrackerSet always runs — it is how
     *  the report's alert counts are computed. */
    std::string freshness_out;

    /** Objective of every freshness SloTracker, percent. */
    double freshness_objective_pct = 99.0;
};

/** Freshness outcome of one camera stream. */
struct StreamLaneStats
{
    int stream = 0;
    FreshnessStats freshness;
    watch::Alert::Tier tier = watch::Alert::kNone;
};

/** Per-model streaming outcome. */
struct StreamModelStats
{
    std::string model;
    std::string precision;
    std::string policy;
    std::string arrival;
    int streams = 0;
    double fps = 0.0;
    double stale_ms = 0.0;
    int instances = 0;

    FreshnessStats freshness; //!< aggregate over the lanes
    bool conserved = false;   //!< conservation invariant held

    std::int64_t batches = 0;
    double mean_batch = 0.0;

    // Mean per-stage attribution over completed frames, ms. The
    // infer stages reuse watch::RequestTrace's breakdown; their total
    // runs from preprocess-done to download-done.
    double decode_mean_ms = 0.0;
    double preprocess_mean_ms = 0.0;
    watch::StageSums infer_mean_ms;
    double postprocess_mean_ms = 0.0;

    std::vector<StreamLaneStats> lanes; //!< stream-index order
};

/** Full report of one EdgeStream run. */
struct StreamReport
{
    std::uint64_t seed = 0;
    double duration_s = 0.0;
    std::vector<StreamModelStats> models;
    std::vector<serve::DeviceStats> devices;

    /** Freshness alerts over every (model, stream) lane. */
    watch::AlertCounts freshness;

    /** Canonical JSON (deterministic field order and numbers). */
    std::string toJson() const;
};

/** One EdgeStream run, built, placed and loaded with every camera's
 *  frames, ready for controlUntil(); `cfg` must outlive it. */
std::unique_ptr<serve::FrontEnd<StreamReport>>
startStreams(const StreamConfig &cfg);

/** Run the streaming pipeline; deterministic for a fixed config. */
StreamReport runStreams(const StreamConfig &cfg);

/**
 * edgertstream's --model spec: the shared engine keys (see
 * serve/cli.hh) plus streams, fps, policy, budget, stale_ms,
 * arrival=fixed|jitter, jitter_pct, decode_ms, preprocess_ms,
 * postprocess_ms and stage_jitter_pct. Options override `defaults`
 * (the tool's --streams / --fps / --policy globals).
 */
StreamModelConfig parseModelSpec(const std::string &spec,
                                 const StreamModelConfig &defaults);

} // namespace edgert::stream

#endif // EDGERT_STREAM_STREAM_HH

#ifndef EDGERT_CORE_BUILDER_HH
#define EDGERT_CORE_BUILDER_HH

/**
 * @file
 * The EdgeRT engine builder (TensorRT IBuilder analogue).
 *
 * Building runs the compression passes (optimizer.hh) and then the
 * hardware-mapping stage: for every fused node the autotuner times
 * each candidate tactic *on the target device* and keeps the fastest
 * measurement. Timing measurements carry realistic jitter, so near-
 * tied candidates flip between builds — engine generation is
 * intentionally non-deterministic unless a build id is pinned,
 * reproducing the paper's Finding 6. Two builds with the same
 * build_id are bit-identical.
 *
 * Parallelism. The per-node tactic sweeps are independent, so
 * BuilderConfig::jobs fans them out across a common::ThreadPool.
 * Every measurement draws its jitter from an Rng keyed by
 * (build_id, node identity, tactic, trial) — never from wall-clock
 * or thread schedule — so a parallel build is *bit-identical* to
 * the serial build for a pinned build_id. Tests assert this.
 *
 * Timing cache. Attaching a core::TimingCache switches the
 * autotuner to signature-keyed measurements (see timing_cache.hh):
 * nodes with identical shape share one measurement, cache hits skip
 * measureTactic entirely, and a warm cache freezes tactic choices
 * across rebuilds with different build ids (the Finding 6
 * mitigation). New measurements are committed to the cache in
 * deterministic node order at the end of the build, so lookups only
 * ever see the cache state from before the build — serial and
 * parallel builds observe the same cache, another leg of the
 * bit-identity contract.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/optimizer.hh"
#include "core/precision.hh"
#include "core/tactics.hh"
#include "gpusim/device.hh"
#include "nn/network.hh"

namespace edgert {

class ThreadPool;

} // namespace edgert

namespace edgert::core {

class TimingCache;

/** Builder configuration (IBuilderConfig analogue). */
struct BuilderConfig
{
    /** Target execution precision (TensorRT edge default: FP16). */
    nn::Precision precision = nn::Precision::kFp16;

    /**
     * Identity of this build. Successive builds of the same model
     * naturally get different ids (TensorRT's timing-based tactic
     * selection is not seeded); pin it for reproducible engines.
     */
    std::uint64_t build_id = 0;

    /**
     * Timing repetitions per candidate (averaged); TensorRT's
     * avgTimingIterations. More iterations → less tactic flapping.
     */
    int avg_timing_iterations = 2;

    /** Relative std-dev of one kernel timing measurement. */
    double timing_noise = 0.05;

    /** Compression-pass switches (ablation studies). */
    OptimizerOptions optimizer;

    /**
     * Calibration-batch identity for INT8 and mixed builds (ignored
     * otherwise). Different calibration data yields different
     * activation ranges and hence different engines.
     */
    std::uint64_t calibration_seed = 0;

    /**
     * Margin-loss budgets of the per-layer precision selector,
     * consulted only when precision == kMixed (see core/precision.hh).
     */
    PrecisionPlanConfig precision_plan;

    /**
     * Worker threads for the tactic autotuning sweep. 1 = serial,
     * 0 = one per hardware thread. Any value produces bit-identical
     * engines for a pinned build_id (measurement noise is RNG-keyed,
     * never schedule-dependent).
     */
    int jobs = 1;

    /**
     * Optional tactic-timing cache, consulted before measureTactic
     * and extended with this build's fresh measurements (not
     * owned; must outlive the build). See timing_cache.hh for the
     * determinism contract.
     */
    TimingCache *timing_cache = nullptr;
};

/** Per-node autotuning outcome, for build logs and tests. */
struct TuningRecord
{
    std::string node_name;
    std::string chosen_tactic;
    int candidates = 0;
    double best_ms = 0.0;
    double runner_up_ms = 0.0;
};

/**
 * Device-occupancy summary of the autotuning sweep.
 *
 * Timing a tactic occupies the build device for the tactic's
 * duration × avg_timing_iterations — on real hardware this is what
 * makes engine building take minutes, and it is the cost the
 * timing cache and the parallel sweep attack. The simulator runs
 * the measurements analytically (host-side they cost microseconds),
 * so the builder reports the modeled occupancy instead: one entry
 * per parallel sweep task, from which serial device time and the
 * makespan across N workers follow deterministically.
 */
struct TimingWorkload
{
    int jobs = 1;                  //!< resolved worker count
    std::int64_t measurements = 0; //!< fresh tactic timings run
    std::int64_t cache_hits = 0;   //!< timings served by the cache
    std::int64_t shared = 0;       //!< reused across same-signature nodes

    /** Device-seconds of fresh measurement per sweep task. */
    std::vector<double> task_device_seconds;

    /** Total device time of a serial sweep (jobs = 1). */
    double serialSeconds() const;

    /**
     * Sweep makespan with @p workers workers, modeling the pool's
     * dynamic dispatch: tasks start in order, each on the earliest
     * free worker.
     */
    double makespanSeconds(int workers) const;
};

/**
 * Identity summary of one finished build, exported for the deploy
 * layer's repository manifests: everything a lifecycle system needs
 * to answer "where did this plan come from, and would a rebuild
 * reproduce it" without deserializing the plan itself. The tactic
 * fingerprint is Engine::fingerprint() of the produced engine —
 * equal fingerprints mean bit-identical binaries.
 */
struct BuildProvenance
{
    std::string model;
    std::string device;
    nn::Precision precision = nn::Precision::kFp16;
    std::uint64_t build_id = 0;
    std::uint64_t tactic_fingerprint = 0;
    std::int64_t timing_measurements = 0; //!< fresh tactic timings
    std::int64_t timing_cache_hits = 0;   //!< cache-served timings
    std::int64_t timing_shared = 0;       //!< signature-shared timings
    int jobs = 1;                         //!< resolved sweep workers
};

/** Full build report. */
struct BuildReport
{
    OptimizerStats optimizer;
    std::vector<TuningRecord> tuning;
    TimingWorkload workload;
    BuildProvenance provenance;

    /** Per-layer precision decisions (kMixed builds only; empty
     *  `decisions` otherwise). */
    PrecisionPlan precision_plan;
};

/**
 * Engine builder bound to one target device.
 */
class Builder
{
  public:
    /**
     * @param device Device the engine is compiled *on* (and for).
     * @param config Build options.
     */
    Builder(const gpusim::DeviceSpec &device,
            const BuilderConfig &config);

    const gpusim::DeviceSpec &device() const { return device_; }
    const BuilderConfig &config() const { return config_; }

    /**
     * Build an optimized engine from a frozen network. The network
     * is validate()d first; malformed graphs throw FatalError.
     * @param net    Source model.
     * @param report Optional out-param receiving the build log.
     */
    Engine build(const nn::Network &net,
                 BuildReport *report = nullptr) const;

    /**
     * Map the network for *un-optimized* execution: one FP32 kernel
     * per live layer, no fusion, no quantization. This is the
     * baseline the paper's Tables III/VII compare against.
     */
    Engine buildUnoptimized(const nn::Network &net) const;

  private:
    double measureTactic(const Tactic &tactic,
                         std::uint64_t noise_key) const;

    /**
     * Record this build's outcome into the global MetricRegistry:
     * sweep workload counters and histograms, timing-cache hit/miss
     * gauges, and thread-pool worker and task counts. Runs
     * serially at the end of build(), in deterministic
     * (topological) order.
     */
    void publishMetrics(const BuildReport &report,
                        const TimingCache *cache,
                        const ThreadPool *pool) const;

    gpusim::DeviceSpec device_;
    BuilderConfig config_;
};

} // namespace edgert::core

#endif // EDGERT_CORE_BUILDER_HH

#ifndef EDGERT_FLEET_FLEET_HH
#define EDGERT_FLEET_FLEET_HH

/**
 * @file
 * EdgeFleet: cluster-scale serving across a simulated heterogeneous
 * device fleet.
 *
 * A fleet run is the EdgeServe two-phase design lifted one level up:
 * a single control-plane DES routes fleet-wide arrivals across
 * hundreds of nodes (consistent hashing or least-predicted-sojourn),
 * runs per-node admission, batching and burn-rate SLO tracking, and
 * executes membership events — node failures, rejoins, automatic
 * quarantine, staged rollouts — at node granularity. The output is
 * one dispatch plan per engine instance per node; phase 2 replays
 * each node's plan in its own GpuSim (its own MetricRegistry, so the
 * replay parallelizes without any cross-thread metric interleaving)
 * and the per-node registries are merged into the global one in node
 * id order. Measured completions, not predictions, feed every
 * reported latency.
 *
 * Scale economics: engines are built and calibrated once per
 * *device class* (distinct device × clock) and shared read-only by
 * every node of the class, so a ~500-node fleet costs a handful of
 * builds plus per-node queues, streams and plans.
 *
 * Everything is a pure function of (config, seed): same-seed runs —
 * serial or multi-threaded replay — produce byte-identical reports.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "deploy/drift_gate.hh"
#include "fleet/placement.hh"
#include "fleet/router.hh"
#include "fleet/spec.hh"
#include "serve/core.hh"
#include "serve/queue.hh"
#include "serve/workload.hh"
#include "watch/slo.hh"

namespace edgert::fleet {

/** One model served fleet-wide and its traffic contract. */
struct FleetModelConfig
{
    std::string model;      //!< nn::buildZooModel name
    double slo_ms = 50.0;   //!< end-to-end deadline
    serve::ArrivalConfig arrivals; //!< *aggregate* fleet-wide load
    serve::BatchPolicy batching;
    int instances_per_node = 1;

    /** Serving precision of this model's fleet-wide engine builds;
     *  also steers capability placement (INT8 models rank classes
     *  by their precision-effective peak). */
    nn::Precision precision = nn::Precision::kFp16;

    /** Calibration-batch identity for @int8 / @mixed builds. */
    std::uint64_t calibration_seed = 0;

    /**
     * Share of the fleet placed to serve this model, filled in
     * placement-rank order (see PlacementPolicy). 100 = everywhere.
     */
    double nodes_pct = 100.0;
};

/**
 * One scheduled node decommission (and optional rejoin). Failures
 * are graceful drains: at fail_s the node leaves every ring and its
 * queued requests re-route deterministically; dispatches already
 * planned drain to completion, so no in-flight request is dropped.
 */
struct FailureSpec
{
    int node = -1;
    double fail_s = 0.0;
    double rejoin_s = -1.0; //!< < 0 = never rejoins
};

/** One stage of a staged rollout. */
struct RolloutStage
{
    double t_s = 0.0;
    double pct = 100.0; //!< cohort share of eligible nodes
};

/**
 * A fleet-wide staged rollout of a candidate engine build: at each
 * stage a seeded cohort (1% -> 10% -> 100% canonically) splices its
 * dispatch over to the candidate. The DriftGate judges the
 * candidate once per device class before the first stage; nodes of
 * a rejected class are quarantined instead of switched, and a stage
 * that quarantines anyone halts the remaining stages — the canary
 * cohort absorbs the bad build so the rest of the fleet never sees
 * it.
 */
struct RolloutSpec
{
    std::string model; //!< must match a FleetModelConfig
    std::uint64_t candidate_build_id = 2;
    std::vector<RolloutStage> stages;
    deploy::DriftGateConfig gate;
};

/** Whole-fleet configuration. */
struct FleetConfig
{
    std::vector<NodeGroup> groups;
    std::vector<FleetModelConfig> models;
    double duration_s = 10.0;
    std::uint64_t seed = 1;

    RoutePolicy route_policy = RoutePolicy::kHash;
    int vnodes = 128;       //!< ring points per node
    int sojourn_choices = 4; //!< power-of-d candidates (sojourn)

    PlacementPolicy placement = PlacementPolicy::kCalibrated;
    bool admission_control = true;

    /** Share of each node's RAM (GiB, as serve::InstancePool
     *  budgets it) available for execution contexts. */
    double ram_fraction = 0.5;

    std::uint64_t build_id = 1;

    /**
     * Worker threads for the phase-2 replay (1 = serial node order;
     * >1 replays nodes on a thread pool). Reports and metric
     * snapshots are byte-identical across thread counts: each node's
     * simulator records into a private MetricRegistry, merged into
     * the global one in node id order (see serve::replayPlans).
     */
    int sim_threads = 1;

    /** Quarantine a node when its SLO tracker (99% objective)
     *  pages. */
    bool quarantine_on_page = true;

    std::vector<FailureSpec> failures;
    std::vector<RolloutSpec> rollouts;
};

/** Per-model fleet-wide serving outcome. */
struct FleetModelStats : serve::TrafficStats
{
    std::string model;
    double slo_ms = 0.0;
    int serving_nodes = 0; //!< nodes placed with >= 1 instance
    std::vector<std::string> placement_rank; //!< class labels, best first
    double attainment_pct = 0.0;  //!< within-SLO / offered x 100
};

/** Per-group (node pool) outcome. */
struct FleetGroupStats
{
    std::string group;
    std::string dev_class; //!< class label, e.g. "nx" / "agx@0.6"
    int nodes = 0;
    int quarantined = 0;
    int failed = 0; //!< failed and never rejoined
    std::int64_t completed = 0;
    double mean_ms = 0.0;
    double p99_ms = 0.0;
};

/** One membership event (failure / rejoin / quarantine). */
struct FleetEvent
{
    double t_s = 0.0;
    int node = -1;
    std::string node_name;
    std::string kind;   //!< "fail" | "rejoin" | "quarantine"
    std::string reason; //!< quarantine reason ("" otherwise)
    std::int64_t rerouted = 0; //!< queued requests moved
    double remap_pct = 0.0; //!< mean key-space share remapped
};

/** The drift verdict of one device class within a rollout. */
struct ClassVerdictStats
{
    std::string dev_class;
    bool accepted = false;
    std::string reason;
    double disagreement_pct = 0.0;
    double kernel_remap_pct = 0.0;
};

/** Outcome of one rollout stage. */
struct RolloutStageStats
{
    double t_s = 0.0;
    double pct = 0.0;
    bool executed = false; //!< false when a prior stage halted
    int cohort = 0;
    int switched = 0;
    int quarantined = 0;
};

/** Outcome of one staged rollout. */
struct RolloutStats
{
    std::string model;
    std::uint64_t candidate_build_id = 0;
    bool halted = false;
    std::vector<ClassVerdictStats> verdicts;
    std::vector<RolloutStageStats> stages;
};

/** Per-class summary (shared builds and calibration). */
struct FleetClassStats
{
    std::string label;
    int nodes = 0;
    /** Calibrated batch-1 service time per model (ms), model order. */
    std::vector<double> svc1_ms;
};

/** Full report of one fleet run; the LatencySummary is over every
 *  completed request. */
struct FleetReport : serve::LatencySummary
{
    std::uint64_t seed = 0;
    double duration_s = 0.0;
    std::string route_policy;
    std::string placement;
    int vnodes = 0;
    int nodes = 0;

    std::int64_t offered = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    /** Requests in no terminal state at drain — always 0; reported
     *  so the zero-drop invariant is visible in the artifact. */
    std::int64_t unaccounted = 0;

    double aggregate_offered_qps = 0.0;

    std::vector<FleetClassStats> classes;
    std::vector<FleetModelStats> models;
    std::vector<FleetGroupStats> groups;
    std::vector<FleetEvent> events;
    std::vector<RolloutStats> rollouts;
    watch::AlertCounts alerts; //!< per-node SLO tier transitions
    /** The same per group: groups with any transition, by name. */
    std::vector<std::pair<std::string, watch::AlertCounts>>
        alerts_by_group;

    /** Canonical JSON (deterministic field order and numbers). */
    std::string toJson() const;
};

/** One EdgeFleet run, built, placed and loaded with its workload,
 *  failures and rollouts, ready for controlUntil(); `cfg` must outlive
 *  it. */
std::unique_ptr<serve::FrontEnd<FleetReport>>
startFleet(const FleetConfig &cfg);

/** Run the fleet; deterministic for a fixed config. */
FleetReport runFleet(const FleetConfig &cfg);

/**
 * edgertfleet's --model spec: the shared engine and traffic keys
 * (see serve/cli.hh; `instances` is per node and qps the aggregate
 * fleet-wide rate) plus nodes_pct.
 */
FleetModelConfig parseModelSpec(const std::string &spec);

} // namespace edgert::fleet

#endif // EDGERT_FLEET_FLEET_HH

#ifndef EDGERT_DEPLOY_REBUILD_WORKER_HH
#define EDGERT_DEPLOY_REBUILD_WORKER_HH

/**
 * @file
 * RebuildWorker — background engine rebuilds feeding the repository.
 *
 * A deployment pipeline periodically rebuilds its engines (new
 * builder release, refreshed calibration data, changed target
 * clocks). The worker runs those builds on a common::ThreadPool,
 * stores each result in the EngineRepository, and pushes it through
 * the DriftGate against the key's live version: accepted candidates
 * are promoted, rejected ones quarantined with the gate's verdict.
 *
 * Determinism: builds run in parallel into disjoint slots, but all
 * repository commits (put / promote / quarantine) happen serially in
 * job order afterwards, so manifests — and the metric stream — are
 * identical regardless of worker count.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hh"
#include "deploy/drift_gate.hh"
#include "deploy/repository.hh"
#include "gpusim/device.hh"

namespace edgert::deploy {

/** One rebuild request. */
struct RebuildJob
{
    std::string model;          //!< zoo model name
    gpusim::DeviceSpec device;  //!< build target
    nn::Precision precision = nn::Precision::kFp16;
    std::uint64_t build_id = 0; //!< builder seed of this rebuild

    /**
     * Precision lineage the candidate is gated against. Unset
     * (the default) gates against the candidate's own precision
     * key; set it to the *incumbent's* precision for a cross-
     * precision promotion (an INT8 candidate judged against the
     * live FP16 engine). The candidate is still stored and
     * promoted under its own precision key.
     */
    std::optional<nn::Precision> gate_against;

    /** Calibration-batch identity for INT8/mixed builds. */
    std::uint64_t calibration_seed = 0;
};

/** What happened to one job. */
struct RebuildOutcome
{
    RebuildJob job;
    int version = -1;     //!< assigned repository version (-1: none)
    bool gated = false;   //!< drift gate ran (an incumbent existed)
    bool promoted = false;
    bool quarantined = false;
    DriftVerdict verdict; //!< valid when `gated`
    Status status;        //!< first error, if the job failed
};

/**
 * Builds candidate engines and commits them through the gate.
 */
class RebuildWorker
{
  public:
    /**
     * @param repo     Destination repository (not owned).
     * @param gate_cfg Drift-gate thresholds.
     * @param workers  Pool size for the builds; <= 1 runs serially.
     */
    RebuildWorker(EngineRepository &repo,
                  DriftGateConfig gate_cfg = {}, int workers = 1);

    /** Run every job; outcomes are in job order. */
    std::vector<RebuildOutcome>
    run(const std::vector<RebuildJob> &jobs);

  private:
    EngineRepository &repo_;
    DriftGate gate_;
    int workers_;
};

} // namespace edgert::deploy

#endif // EDGERT_DEPLOY_REBUILD_WORKER_HH

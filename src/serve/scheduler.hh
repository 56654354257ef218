#ifndef EDGERT_SERVE_SCHEDULER_HH
#define EDGERT_SERVE_SCHEDULER_HH

/**
 * @file
 * Engine-instance pool and placement for EdgeServe.
 *
 * Each model is prebuilt at power-of-two batch sizes up to its
 * max_batch (TensorRT engines are static-shape: a batch of b runs
 * on the smallest prebuilt engine >= b). An *instance* is one
 * execution context bound to its own stream on one device — the
 * pool places the requested instances per device, bounded by
 * `runtime::contextFootprintBytes` of the largest engine against
 * the device's RAM budget, and tracks the dispatch plan the control
 * loop builds for the execution replay.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hh"
#include "gpusim/device.hh"

namespace edgert::serve {

/**
 * Power-of-two engine-batch ladder covering [1, max_batch]: 1, 2,
 * 4, ... up to the smallest power of two >= max_batch. Every server
 * (node-local or fleet) prebuilds one engine per rung.
 */
std::vector<int> engineBatchLadder(int max_batch);

/** One model's prebuilt engines on one device, batch ascending. */
struct EngineSet
{
    std::vector<core::Engine> engines;
    std::vector<int> batches;     //!< batch size of engines[i]
    std::vector<double> service_s; //!< calibrated service of engines[i]

    /** Index of the smallest engine fitting `batch` requests. */
    int indexFor(int batch) const;

    /** Footprint of the largest (most expensive) engine. */
    std::int64_t maxFootprintBytes() const;
};

/**
 * One batch dispatch decided by the control loop. Its request (or
 * frame) ids are `batch` consecutive entries of its instance's id
 * pool from `first_id` on (Instance::idsOf).
 */
struct PlannedDispatch
{
    double t_s = 0.0;       //!< release (batch-cut) time
    int engine_idx = 0;     //!< into the instance's EngineSet
    int version = 0;        //!< engine version (hot-swap lineage)
    int batch = 0;          //!< actual request count (<= engine batch)
    std::uint32_t first_id = 0; //!< into Instance::ids
    double predicted_service_s = 0.0;

    // Measured by the execution replay (simulated seconds). The
    // stage boundaries (upload done, compute done) come from the
    // staged enqueue and feed per-request stage attribution.
    double begin_s = 0.0;
    double upload_done_s = 0.0;
    double compute_done_s = 0.0;
    double end_s = 0.0;
};

/** One engine instance: a stream-bound context slot on a device. */
struct Instance
{
    int model = 0;
    int device = 0;  //!< simulator it replays on (a fleet node)
    int slot = 0;    //!< ModelVersion::sets index (device or class)
    int version = 0; //!< engine version new dispatches use
    double predicted_free_s = 0.0; //!< control-plane estimate
    std::vector<PlannedDispatch> plan;
    /** Ids of every planned dispatch, in plan order: one pool per
     *  instance, so a dispatch costs no heap block of its own. */
    std::vector<std::int64_t> ids;

    /** The ids `pd`, one of this instance's plans, carries. */
    std::span<const std::int64_t> idsOf(const PlannedDispatch &pd) const
    {
        return {ids.data() + pd.first_id,
                static_cast<std::size_t>(pd.batch)};
    }
};

/** RAM-bounded instance placement across the device fleet. */
class InstancePool
{
  public:
    /**
     * @param devices      The simulated fleet.
     * @param ram_fraction Share of each device's RAM available for
     *        execution contexts (the rest models the OS, CUDA and
     *        the framework itself); fatal() outside (0, 1].
     */
    InstancePool(const std::vector<gpusim::DeviceSpec> &devices,
                 double ram_fraction);

    /**
     * Place up to `want` instances of `model` on `device`, each
     * costing `footprint_bytes`; stops at the RAM budget. `slot`
     * selects the instances' engine ladders (-1 = the device index).
     * Returns the number actually placed.
     */
    int place(int model, int device, std::int64_t footprint_bytes,
              int want, int slot = -1);

    const std::vector<gpusim::DeviceSpec> &devices() const
    {
        return devices_;
    }

    std::vector<Instance> &instances() { return instances_; }
    const std::vector<Instance> &instances() const
    {
        return instances_;
    }

    /** Pool indices of the instances serving `model`. */
    const std::vector<int> &instancesOf(int model) const;

    /**
     * Pool index of the predicted-free instance of `model` with the
     * earliest predicted_free_s <= now_s (ties to the lowest
     * index), or -1 when all are predicted busy.
     */
    int freeInstance(int model, double now_s) const;

    /** Bytes of context footprint placed on `device`. */
    std::int64_t ramUsedBytes(int device) const;

    /** Context RAM budget of `device`. */
    std::int64_t ramBudgetBytes(int device) const;

  private:
    std::vector<gpusim::DeviceSpec> devices_;
    double ram_fraction_;
    std::vector<Instance> instances_;
    std::vector<std::vector<int>> by_model_;
    std::vector<std::int64_t> ram_used_;
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_SCHEDULER_HH

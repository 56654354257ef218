#ifndef EDGERT_CORE_ENGINE_HH
#define EDGERT_CORE_ENGINE_HH

/**
 * @file
 * The built inference engine — EdgeRT's analogue of a serialized
 * TensorRT plan.
 *
 * An Engine is an immutable sequence of execution steps, each
 * binding one fused node to the CUDA kernels its chosen tactic
 * launches and to the weight bytes the plan stores for it. The
 * engine remembers the device it was built for; running it on a
 * different device is allowed (the paper's cNX_rAGX / cAGX_rNX
 * experiments) but, as the paper shows, not necessarily faster on
 * bigger hardware.
 *
 * The fingerprint hashes the exact tactic selection: two engines
 * with equal fingerprints are bit-identical binaries and produce
 * identical outputs; engines with different fingerprints may
 * disagree on borderline inputs (Finding 2).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "core/optimizer.hh"
#include "gpusim/kernel.hh"
#include "nn/tensor.hh"

namespace edgert::core {

/** One fused node bound to its chosen tactic. */
struct ExecutionStep
{
    std::string node_name;
    FusedOpKind kind = FusedOpKind::kConv;
    std::string tactic_name;
    std::vector<gpusim::KernelDesc> kernels;
    nn::Precision precision = nn::Precision::kFp16;

    /** Weight bytes stored in the plan / uploaded at context init. */
    std::int64_t weight_plan_bytes = 0;

    /** Number of discrete H2D transfers for those weights. */
    int weight_transfers = 0;
};

/** Network-level input/output binding of an engine. */
struct IoDesc
{
    std::string name;
    nn::Dims dims;
    std::int64_t bytes = 0; //!< host-side FP32 payload
};

/**
 * An immutable, serializable inference engine.
 */
class Engine
{
  public:
    Engine() = default;
    Engine(std::string model_name, std::string device_name,
           nn::Precision precision, std::uint64_t build_id,
           std::vector<ExecutionStep> steps, std::vector<IoDesc> inputs,
           std::vector<IoDesc> outputs,
           std::uint64_t calibration_fingerprint = 0);

    const std::string &modelName() const { return model_name_; }

    /** Name of the device the engine was compiled on. */
    const std::string &deviceName() const { return device_name_; }

    nn::Precision precision() const { return precision_; }
    std::uint64_t buildId() const { return build_id_; }

    /** INT8 calibration-table hash; 0 for FP16/FP32 engines. */
    std::uint64_t calibrationFingerprint() const
    {
        return calibration_fingerprint_;
    }

    const std::vector<ExecutionStep> &steps() const { return steps_; }
    const std::vector<IoDesc> &inputs() const { return inputs_; }
    const std::vector<IoDesc> &outputs() const { return outputs_; }

    /** Total kernels launched per inference. */
    std::int64_t kernelCount() const;

    /** Total plan weight payload in bytes. */
    std::int64_t weightBytes() const;

    /** Total discrete weight transfers at context creation. */
    int weightTransfers() const;

    /**
     * Fraction of the engine's compute (kernel FLOPs) executed by
     * INT8 steps, in [0, 1]. 0 for pure FP16/FP32 engines, 1 for
     * fully quantized ones; mixed engines land in between according
     * to how much work the precision selector kept at INT8.
     */
    double int8ComputeFraction() const;

    /**
     * Serialized plan size in bytes: header + one embedded cubin per
     * unique kernel + per-step metadata + weight payload. Matches
     * the "TensorRT engine size" columns of the paper's Table II.
     */
    std::int64_t planSizeBytes() const;

    /**
     * Identity of the built binary. Engines with equal fingerprints
     * compute bit-identical results.
     */
    std::uint64_t fingerprint() const;

    /**
     * Serialize the plan to bytes. The stream is an integrity
     * frame (size header + CRC32 footer, see common/framing.hh)
     * around the plan body, so any corruption or truncation in
     * transit is detected on load.
     */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Reconstruct an engine from serialize() output. Plan files are
     * untrusted input: corrupt, truncated, extended or otherwise
     * malformed bytes yield an error Status (never an abort).
     * Version-1 plans (pre-CRC) remain readable.
     */
    static Result<Engine>
    deserialize(const std::vector<std::uint8_t> &bytes);

  private:
    std::string model_name_;
    std::string device_name_;
    nn::Precision precision_ = nn::Precision::kFp16;
    std::uint64_t build_id_ = 0;
    std::vector<ExecutionStep> steps_;
    std::vector<IoDesc> inputs_;
    std::vector<IoDesc> outputs_;
    std::uint64_t calibration_fingerprint_ = 0;
};

} // namespace edgert::core

#endif // EDGERT_CORE_ENGINE_HH

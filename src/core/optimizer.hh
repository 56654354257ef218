#ifndef EDGERT_CORE_OPTIMIZER_HH
#define EDGERT_CORE_OPTIMIZER_HH

/**
 * @file
 * Model-compression passes of the EdgeRT engine builder — the first
 * functional step of the paper's Figure 2:
 *
 *  1. dead-layer removal  — layers not reaching a marked output are
 *     dropped (e.g. GoogLeNet's auxiliary classifier heads), and
 *     inference no-ops (dropout, flatten, identity) are elided;
 *  2. vertical fusion     — conv/fc + batch-norm + scale +
 *     activation chains collapse into one node;
 *  3. horizontal merging  — sibling convolutions with identical
 *     geometry reading the same tensor become one wider kernel
 *     (inception branch towers);
 *  4. quantization        — nodes are assigned FP16 (or INT8)
 *     execution precision; numerically sensitive heads stay FP32.
 *
 * The result is an OptimizedGraph of fused nodes, each of which the
 * hardware-mapping stage (tactics + autotuner) lowers to concrete
 * CUDA kernels.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "nn/executor.hh"
#include "nn/network.hh"

namespace edgert::core {

/** Kinds of fused execution nodes. */
enum class FusedOpKind
{
    kConv,
    kDeconv,
    kFullyConnected,
    kPooling,
    kLrn,
    kConcat,
    kEltwise,
    kSoftmax,
    kUpsample,
    kRegion,
    kDetection,
};

/**
 * One fused node of the optimized graph.
 */
struct OptNode
{
    int id = -1;
    std::string name; //!< derived from the main layer's name
    FusedOpKind kind = FusedOpKind::kConv;

    /** Original layer ids fused vertically (main layer first). */
    std::vector<std::int32_t> layer_ids;

    /**
     * Main-layer ids of siblings merged horizontally into this node
     * (empty unless pass 3 merged anything).
     */
    std::vector<std::int32_t> merged_main_ids;

    /** Input tensor names (resolved through elided layers). */
    std::vector<std::string> inputs;

    /** Output tensor names (one per merged sibling). */
    std::vector<std::string> outputs;

    bool has_activation = false; //!< an activation was fused in
    nn::Precision precision = nn::Precision::kFp16;
};

/** Statistics reported by the optimizer (build log material). */
struct OptimizerStats
{
    int dead_layers_removed = 0;
    int noops_elided = 0;
    int layers_fused = 0;       //!< layers absorbed by vertical fusion
    int horizontal_merges = 0;  //!< sibling groups merged
    int nodes = 0;              //!< resulting fused node count
};

/**
 * The optimized graph: fused nodes in topological order over the
 * original network's tensors.
 */
class OptimizedGraph
{
  public:
    OptimizedGraph(const nn::Network &net, std::vector<OptNode> nodes,
                   OptimizerStats stats);

    const nn::Network &network() const { return *net_; }
    const std::vector<OptNode> &nodes() const { return nodes_; }

    /** Mutable node access for post-pass precision rewrites (see
     *  core/precision.hh: the mixed-precision selector flips
     *  individual nodes back to FP16 before tactic selection). */
    std::vector<OptNode> &mutableNodes() { return nodes_; }
    const OptimizerStats &stats() const { return stats_; }

    /** Total trainable parameters reachable from the outputs. */
    std::int64_t liveParamCount() const;

  private:
    const nn::Network *net_;
    std::vector<OptNode> nodes_;
    OptimizerStats stats_;
};

/**
 * Pass-enable switches, for ablation studies. All passes are on by
 * default (the TensorRT behaviour the paper characterizes).
 */
struct OptimizerOptions
{
    bool dead_layer_removal = true;
    bool noop_elision = true;
    bool vertical_fusion = true;
    bool horizontal_merge = true;
};

/**
 * Run the compression passes.
 * @param net       Validated source network.
 * @param precision Target execution precision (kFp16 is TensorRT's
 *                  edge default; kInt8 also quantizes activations).
 * @param options   Pass-enable switches (ablation studies).
 */
OptimizedGraph optimize(const nn::Network &net,
                        nn::Precision precision,
                        const OptimizerOptions &options = {});

} // namespace edgert::core

#endif // EDGERT_CORE_OPTIMIZER_HH

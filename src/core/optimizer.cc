#include "core/optimizer.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace edgert::core {

using nn::Layer;
using nn::LayerKind;
using nn::Network;

const char *
fusedOpKindName(FusedOpKind k)
{
    switch (k) {
      case FusedOpKind::kConv: return "conv";
      case FusedOpKind::kDeconv: return "deconv";
      case FusedOpKind::kFullyConnected: return "gemm";
      case FusedOpKind::kPooling: return "pool";
      case FusedOpKind::kLrn: return "lrn";
      case FusedOpKind::kConcat: return "concat";
      case FusedOpKind::kEltwise: return "eltwise";
      case FusedOpKind::kSoftmax: return "softmax";
      case FusedOpKind::kUpsample: return "upsample";
      case FusedOpKind::kRegion: return "region";
      case FusedOpKind::kDetection: return "detection";
    }
    panic("unknown FusedOpKind");
}

OptimizedGraph::OptimizedGraph(const Network &net,
                               std::vector<OptNode> nodes,
                               OptimizerStats stats)
    : net_(&net), nodes_(std::move(nodes)), stats_(stats)
{}

std::int64_t
OptimizedGraph::liveParamCount() const
{
    std::int64_t total = 0;
    for (const auto &node : nodes_)
        for (auto lid : node.layer_ids)
            total += net_->layerParamCount(net_->layer(lid));
    return total;
}

namespace {

/** True for layers that are pure no-ops at inference time. */
bool
isNoOp(const Layer &l)
{
    return l.kind == LayerKind::kDropout ||
           l.kind == LayerKind::kFlatten ||
           l.kind == LayerKind::kIdentity;
}

/** True for layers a conv/fc/deconv node can absorb vertically. */
bool
isAbsorbable(const Layer &l)
{
    return l.kind == LayerKind::kBatchNorm ||
           l.kind == LayerKind::kScale ||
           l.kind == LayerKind::kActivation;
}

FusedOpKind
mainKind(const Layer &l)
{
    switch (l.kind) {
      case LayerKind::kConvolution: return FusedOpKind::kConv;
      case LayerKind::kDeconvolution: return FusedOpKind::kDeconv;
      case LayerKind::kFullyConnected:
        return FusedOpKind::kFullyConnected;
      case LayerKind::kPooling: return FusedOpKind::kPooling;
      case LayerKind::kLRN: return FusedOpKind::kLrn;
      case LayerKind::kConcat: return FusedOpKind::kConcat;
      case LayerKind::kEltwise: return FusedOpKind::kEltwise;
      case LayerKind::kSoftmax: return FusedOpKind::kSoftmax;
      case LayerKind::kUpsample: return FusedOpKind::kUpsample;
      case LayerKind::kRegion: return FusedOpKind::kRegion;
      case LayerKind::kDetectionOutput: return FusedOpKind::kDetection;
      default:
        panic("layer kind ", layerKindName(l.kind),
              " cannot start a fused node");
    }
}

} // namespace

OptimizedGraph
optimize(const Network &net, nn::Precision precision,
         const OptimizerOptions &options)
{
    net.validate();
    OptimizerStats stats;

    // Per-pass host time: one `pass:<name>` span per compression
    // pass while the tracer is on, and no clock read while it is off.
    // Host time never enters the MetricRegistry.
    obs::Tracer &tracer = obs::Tracer::global();
    const bool traced = tracer.enabled();
    std::uint64_t pass_start = traced ? obs::clock().nowNanos() : 0;
    auto passDone = [&](const char *pass) {
        if (!traced)
            return;
        std::uint64_t now = obs::clock().nowNanos();
        obs::SpanRecord rec;
        rec.name = std::string("pass:") + pass;
        rec.start_ns = pass_start;
        rec.end_ns = now;
        tracer.record(std::move(rec));
        pass_start = now;
    };

    // ------------------------------------------------------------------
    // Pass 1a: dead-layer removal. Walk producers backwards from the
    // marked outputs; anything unreached is dead (GoogLeNet aux heads).
    // ------------------------------------------------------------------
    std::unordered_set<std::int32_t> live;
    if (options.dead_layer_removal) {
        std::deque<std::string> frontier(net.outputs().begin(),
                                         net.outputs().end());
        while (!frontier.empty()) {
            std::string t = frontier.front();
            frontier.pop_front();
            std::int32_t pid = net.producerOf(t);
            if (pid < 0 || live.count(pid))
                continue;
            live.insert(pid);
            for (const auto &in : net.layer(pid).inputs)
                frontier.push_back(in);
        }
    } else {
        for (const auto &l : net.layers())
            live.insert(l.id);
    }
    for (const auto &l : net.layers())
        if (!live.count(l.id) && l.kind != LayerKind::kInput)
            stats.dead_layers_removed++;
    passDone("dead_layer_removal");

    // ------------------------------------------------------------------
    // Pass 1b: no-op elision. Dropout / flatten / identity layers are
    // removed; their outputs alias their inputs.
    // ------------------------------------------------------------------
    std::unordered_map<std::string, std::string> alias;
    auto resolve = [&](const std::string &t) {
        std::string cur = t;
        auto it = alias.find(cur);
        while (it != alias.end()) {
            cur = it->second;
            it = alias.find(cur);
        }
        return cur;
    };

    // ------------------------------------------------------------------
    // Pass 2: vertical fusion. Build fused nodes in topological order.
    // ------------------------------------------------------------------
    std::unordered_set<std::int32_t> consumed; // absorbed layers
    std::vector<OptNode> nodes;

    // Single-consumer map for fusion legality.
    auto soleConsumer = [&](const std::string &tensor) -> std::int32_t {
        std::int32_t found = -1;
        int count = 0;
        for (auto cid : net.consumersOf(tensor)) {
            if (!live.count(cid))
                continue;
            found = cid;
            count++;
        }
        return count == 1 ? found : -1;
    };

    for (const auto &l : net.layers()) {
        if (l.kind == LayerKind::kInput || !live.count(l.id) ||
            consumed.count(l.id))
            continue;
        if (isNoOp(l)) {
            if (options.noop_elision) {
                alias[l.output] = resolve(l.inputs[0]);
                stats.noops_elided++;
                continue;
            }
            // Ablation: keep the no-op as a pointwise copy node.
            OptNode node;
            node.id = static_cast<int>(nodes.size());
            node.name = l.name;
            node.kind = FusedOpKind::kEltwise;
            node.layer_ids = {l.id};
            node.inputs = {resolve(l.inputs[0])};
            node.outputs = {l.output};
            nodes.push_back(std::move(node));
            continue;
        }
        if (isAbsorbable(l)) {
            // An absorbable layer that was not fused into a producer
            // (e.g. activation after concat) becomes its own
            // pointwise node, executed as an eltwise kernel.
            OptNode node;
            node.id = static_cast<int>(nodes.size());
            node.name = l.name;
            node.kind = FusedOpKind::kEltwise;
            node.layer_ids = {l.id};
            node.inputs = {resolve(l.inputs[0])};
            node.outputs = {l.output};
            node.has_activation = l.kind == LayerKind::kActivation;
            nodes.push_back(std::move(node));
            continue;
        }

        OptNode node;
        node.id = static_cast<int>(nodes.size());
        node.name = l.name;
        node.kind = mainKind(l);
        node.layer_ids = {l.id};
        for (const auto &in : l.inputs)
            node.inputs.push_back(resolve(in));

        // Greedy vertical absorption for conv-like and eltwise nodes.
        bool can_absorb =
            options.vertical_fusion &&
            (node.kind == FusedOpKind::kConv ||
             node.kind == FusedOpKind::kDeconv ||
             node.kind == FusedOpKind::kFullyConnected ||
             node.kind == FusedOpKind::kEltwise);
        std::string tail = l.output;
        while (can_absorb) {
            std::int32_t next = soleConsumer(tail);
            if (next < 0)
                break;
            const Layer &nl = net.layer(next);
            if (isNoOp(nl)) {
                if (!options.noop_elision)
                    break;
                // Elide through no-ops inside a fusion chain.
                alias[nl.output] = resolve(nl.inputs[0]);
                consumed.insert(nl.id);
                stats.noops_elided++;
                tail = nl.output;
                continue;
            }
            if (!isAbsorbable(nl))
                break;
            node.layer_ids.push_back(nl.id);
            consumed.insert(nl.id);
            stats.layers_fused++;
            tail = nl.output;
            if (nl.kind == LayerKind::kActivation) {
                // The activation is the terminal op of a fused
                // kernel; a scale/bn *after* it cannot be folded
                // into the pre-activation weights.
                node.has_activation = true;
                break;
            }
        }
        node.outputs = {resolve(tail)};
        nodes.push_back(std::move(node));
    }
    passDone("fusion");

    // ------------------------------------------------------------------
    // Pass 3: horizontal merging of sibling convolutions with the
    // same input tensor and identical geometry.
    // ------------------------------------------------------------------
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < nodes.size(); i++) {
        const OptNode &n = nodes[i];
        if (n.kind != FusedOpKind::kConv || n.inputs.size() != 1)
            continue;
        const auto &p =
            net.layer(n.layer_ids[0]).as<nn::ConvParams>();
        if (p.groups != 1)
            continue;
        std::string key = n.inputs[0] + "|k" +
                          std::to_string(p.kh()) + "x" +
                          std::to_string(p.kw()) + "s" +
                          std::to_string(p.stride) + "p" +
                          std::to_string(p.ph()) + "x" +
                          std::to_string(p.pw()) + "d" +
                          std::to_string(p.dilation) + "a" +
                          std::to_string(n.has_activation ? 1 : 0);
        groups[key].push_back(i);
    }

    if (!options.horizontal_merge)
        groups.clear();

    std::unordered_set<std::size_t> dropped;
    for (auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        OptNode &first = nodes[members[0]];
        for (std::size_t j = 1; j < members.size(); j++) {
            OptNode &other = nodes[members[j]];
            first.merged_main_ids.push_back(other.layer_ids[0]);
            first.layer_ids.insert(first.layer_ids.end(),
                                   other.layer_ids.begin(),
                                   other.layer_ids.end());
            first.outputs.insert(first.outputs.end(),
                                 other.outputs.begin(),
                                 other.outputs.end());
            dropped.insert(members[j]);
        }
        stats.horizontal_merges++;
    }

    std::vector<OptNode> merged;
    merged.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); i++) {
        if (dropped.count(i))
            continue;
        nodes[i].id = static_cast<int>(merged.size());
        merged.push_back(std::move(nodes[i]));
    }
    passDone("horizontal_merge");

    // ------------------------------------------------------------------
    // Pass 4: precision assignment. Numerically sensitive heads stay
    // FP32; everything else takes the target precision (INT8 applies
    // to conv/gemm only, the rest falls back to FP16, matching
    // TensorRT's mixed-precision behaviour).
    // ------------------------------------------------------------------
    for (auto &n : merged) {
        switch (n.kind) {
          case FusedOpKind::kSoftmax:
          case FusedOpKind::kRegion:
          case FusedOpKind::kDetection:
            n.precision = nn::Precision::kFp32;
            break;
          case FusedOpKind::kConv:
          case FusedOpKind::kFullyConnected:
            n.precision = precision;
            break;
          default:
            n.precision = precision == nn::Precision::kFp32
                              ? nn::Precision::kFp32
                              : nn::Precision::kFp16;
            break;
        }
    }

    passDone("precision_assignment");

    stats.nodes = static_cast<int>(merged.size());

    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    reg.counter("builder.pass.dead_layers_removed")
        .add(stats.dead_layers_removed);
    reg.counter("builder.pass.noops_elided")
        .add(stats.noops_elided);
    reg.counter("builder.pass.layers_fused")
        .add(stats.layers_fused);
    reg.counter("builder.pass.horizontal_merges")
        .add(stats.horizontal_merges);
    reg.gauge("builder.graph.nodes")
        .set(static_cast<double>(stats.nodes));

    return OptimizedGraph(net, std::move(merged), stats);
}

} // namespace edgert::core

#include "runtime/context.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace edgert::runtime {

namespace {

obs::Counter
runtimeCounter(const char *name, const core::Engine &engine)
{
    return obs::MetricRegistry::global().counter(
        name, {{"model", engine.modelName()}});
}

} // namespace

ExecutionContext::ExecutionContext(const core::Engine &engine,
                                   gpusim::GpuSim &sim, int stream)
    : engine_(&engine), sim_(&sim), stream_(stream)
{
    EDGERT_SPAN("context_setup",
                {{"model", engine.modelName()},
                 {"stream", std::to_string(stream)}});
    for (const auto &in : engine.inputs())
        input_tags_.push_back("input_h2d:" + in.name);
    for (const auto &out : engine.outputs())
        output_tags_.push_back("output_d2h:" + out.name);
}

void
ExecutionContext::countInference()
{
    if (!enqueued_)
        enqueued_ = runtimeCounter("runtime.inference.enqueued", *engine_);
    enqueued_->add();
}

void
ExecutionContext::enqueueWeightUpload()
{
    std::int64_t bytes = engine_->weightBytes();
    int transfers = engine_->weightTransfers();
    if (bytes <= 0)
        return;
    sim_->memcpyH2D(stream_, static_cast<std::uint64_t>(bytes),
                    std::max(1, transfers), "engine_weights_h2d");
    runtimeCounter("runtime.weight_upload.bytes", *engine_)
        .add(bytes);
}

void
ExecutionContext::enqueueInputs(int stream, bool pinned)
{
    const auto &inputs = engine_->inputs();
    for (std::size_t i = 0; i < inputs.size(); i++)
        sim_->memcpyH2D(stream,
                        static_cast<std::uint64_t>(inputs[i].bytes), 1,
                        input_tags_[i], pinned);
}

void
ExecutionContext::enqueueKernels()
{
    // Resolved at the first enqueue, not at construction: a harness
    // may build many more contexts than it enqueues through
    // (bench_sim_speed's fleet shape builds 2048 and uses about 260),
    // and lists for idle contexts would only take heap.
    if (!kernels_) {
        std::vector<const gpusim::KernelDesc *> kernels;
        for (const auto &step : engine_->steps())
            for (const auto &k : step.kernels)
                kernels.push_back(&k);
        kernels_ = sim_->resolveKernels(stream_, kernels);
    }
    sim_->launchKernels(*kernels_);
}

void
ExecutionContext::enqueueOutputs(int stream, bool pinned)
{
    const auto &outputs = engine_->outputs();
    for (std::size_t i = 0; i < outputs.size(); i++)
        sim_->memcpyD2H(stream,
                        static_cast<std::uint64_t>(outputs[i].bytes), 1,
                        output_tags_[i], pinned);
}

InferenceHandle
ExecutionContext::enqueueInference(bool copy_input, bool copy_output,
                                   bool staged)
{
    countInference();
    InferenceHandle h;
    h.begin = sim_->recordEvent(stream_);
    if (copy_input)
        enqueueInputs(stream_, /*pinned=*/false);
    if (staged)
        h.upload_done = sim_->recordEvent(stream_);
    enqueueKernels();
    if (staged)
        h.compute_done = sim_->recordEvent(stream_);
    if (copy_output)
        enqueueOutputs(stream_, /*pinned=*/false);
    h.end = sim_->recordEvent(stream_);
    return h;
}

InferenceHandle
ExecutionContext::enqueuePipelinedInference()
{
    countInference();
    if (copy_stream_ < 0)
        copy_stream_ = sim_->createStream();
    // Next frame's input upload and previous frame's output download
    // overlap with this frame's kernels (double buffering through
    // pre-pinned ring buffers).
    enqueueInputs(copy_stream_, /*pinned=*/true);
    enqueueOutputs(copy_stream_, /*pinned=*/true);

    InferenceHandle h;
    h.begin = sim_->recordEvent(stream_);
    enqueueKernels();
    h.end = sim_->recordEvent(stream_);
    return h;
}

InferenceHandle
ExecutionContext::enqueueStagedPipelined(int upload_stream,
                                         int download_stream)
{
    countInference();
    InferenceHandle h;
    h.begin = sim_->recordEvent(upload_stream);
    enqueueInputs(upload_stream, /*pinned=*/true);
    h.upload_done = sim_->recordEvent(upload_stream);

    sim_->waitEvent(stream_, h.upload_done);
    enqueueKernels();
    h.compute_done = sim_->recordEvent(stream_);

    sim_->waitEvent(download_stream, h.compute_done);
    enqueueOutputs(download_stream, /*pinned=*/true);
    h.end = sim_->recordEvent(download_stream);
    return h;
}

void
ExecutionContext::enqueueHostGap(double seconds)
{
    if (seconds > 0.0)
        sim_->hostDelay(stream_, seconds);
}

std::int64_t
contextFootprintBytes(const core::Engine &engine)
{
    // Weights + an activation arena (TensorRT reserves the worst-case
    // region pool, roughly 6x the largest I/O binding) + fixed
    // per-context bookkeeping.
    std::int64_t io = 0;
    for (const auto &in : engine.inputs())
        io += in.bytes;
    for (const auto &out : engine.outputs())
        io += out.bytes;
    return engine.weightBytes() + 6 * io + (32 << 20);
}

} // namespace edgert::runtime

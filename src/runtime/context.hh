#ifndef EDGERT_RUNTIME_CONTEXT_HH
#define EDGERT_RUNTIME_CONTEXT_HH

/**
 * @file
 * Execution context: binds a built engine to a device simulator and
 * a stream (TensorRT IExecutionContext analogue). All enqueue calls
 * are asynchronous; the caller drives GpuSim::run() and reads event
 * timestamps.
 */

#include <optional>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "gpusim/sim.hh"
#include "obs/metrics.hh"

namespace edgert::runtime {

/**
 * Events delimiting one enqueued inference. `begin` and `end`
 * always bracket the whole enqueue; the stage events in between are
 * only recorded by staged enqueues (see enqueueInference) and stay
 * -1 otherwise.
 */
struct InferenceHandle
{
    gpusim::EventId begin = -1;
    gpusim::EventId upload_done = -1;  //!< input H2D copies done
    gpusim::EventId compute_done = -1; //!< kernels done
    gpusim::EventId end = -1;
};

/**
 * One engine bound to one stream of one simulated device.
 */
class ExecutionContext
{
  public:
    /**
     * The first enqueue resolves the engine's kernels for `stream`
     * (GpuSim::resolveKernels); every inference launches that list.
     * Launched kernels borrow the list and the engine's descriptors,
     * so the engine and the context must outlive, unchanged, every
     * inference enqueued through the context until the simulator has
     * retired it. Moving the context keeps them valid: the list's
     * storage moves with it, in place.
     * @param engine Built engine.
     * @param sim    Device simulator; `stream` must exist on it.
     * @param stream Stream this context enqueues on.
     */
    ExecutionContext(const core::Engine &engine, gpusim::GpuSim &sim,
                     int stream);

    const core::Engine &engine() const { return *engine_; }
    int stream() const { return stream_; }

    /**
     * Enqueue the engine's weight upload (context initialisation).
     * The paper's per-inference latency methodology re-uploads the
     * engine each run, so measureLatency() calls this per run.
     */
    void enqueueWeightUpload();

    /**
     * Enqueue one complete inference.
     * @param copy_input  Copy network inputs host-to-device first.
     * @param copy_output Copy network outputs back afterwards.
     * @param staged      Also record the upload_done/compute_done
     *        stage events so a request-scoped watcher can attribute
     *        latency to upload vs compute vs download. Off by
     *        default: the extra markers leave simulated timing
     *        untouched but shift later event ids, and existing
     *        byte-reproducibility fixtures pin those.
     */
    InferenceHandle enqueueInference(bool copy_input = true,
                                     bool copy_output = true,
                                     bool staged = false);

    /**
     * Enqueue one pipelined (double-buffered) inference: I/O copies
     * go to a dedicated copy stream and overlap with compute, as in
     * a steady-state camera pipeline. The returned events bracket
     * the compute stream only.
     */
    InferenceHandle enqueuePipelinedInference();

    /**
     * Enqueue one fully staged, cross-stream-pipelined inference:
     * pinned input uploads on `upload_stream`, kernels on the
     * context's compute stream, pinned output downloads on
     * `download_stream`, chained upload → compute → download with
     * GpuSim::waitEvent so consecutive frames overlap stage-wise
     * (frame i+1 uploads while frame i computes, which downloads
     * while frame i+2 uploads). All four handle events are
     * recorded: begin/upload_done on the upload stream,
     * compute_done on the compute stream, end on the download
     * stream. The caller sequences frame admission by delaying the
     * *upload* stream.
     */
    InferenceHandle enqueueStagedPipelined(int upload_stream,
                                           int download_stream);

    /** Enqueue host think-time before the next frame. */
    void enqueueHostGap(double seconds);

  private:
    /** Count one enqueued inference (the counter series appears on
     *  the first enqueue, so a context that never enqueues adds none). */
    void countInference();

    /** Enqueue the engine's input copies, kernels (on the context's
     *  stream) or output copies. */
    void enqueueInputs(int stream, bool pinned);
    void enqueueKernels();
    void enqueueOutputs(int stream, bool pinned);

    const core::Engine *engine_;
    gpusim::GpuSim *sim_;
    int stream_;
    int copy_stream_ = -1; //!< lazily created for pipelined mode
    std::vector<std::string> input_tags_;  //!< "input_h2d:<name>"
    std::vector<std::string> output_tags_; //!< "output_d2h:<name>"
    std::optional<gpusim::KernelList> kernels_; //!< set on first use
    std::optional<obs::Counter> enqueued_; //!< set on first enqueue
};

/**
 * Estimated per-context device memory footprint (engine weights +
 * activation arena + stream bookkeeping), used by the concurrency
 * harness to bound thread counts against platform RAM.
 */
std::int64_t contextFootprintBytes(const core::Engine &engine);

} // namespace edgert::runtime

#endif // EDGERT_RUNTIME_CONTEXT_HH

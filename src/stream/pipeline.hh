#ifndef EDGERT_STREAM_PIPELINE_HH
#define EDGERT_STREAM_PIPELINE_HH

/**
 * @file
 * Staged stream pipeline pieces: the host-side stage model, the
 * per-stream backpressure policies and the frame queue that applies
 * them.
 *
 * A frame flows decode → preprocess → infer → postprocess. Decode
 * and preprocess are modeled host stages chained per camera stream
 * (one decoder per camera: stage k of frame i+1 starts no earlier
 * than stage k of frame i ends); infer goes through the serve
 * layer's InstancePool / DynamicBatcher ladder so batching works
 * across streams; postprocess chains per stream again after the
 * device completes.
 *
 * Backpressure decides what happens when frames become ready faster
 * than inference drains them:
 *
 *  - drop_oldest:     keep at most `frame_budget` queued frames per
 *                     stream; admitting one more evicts that
 *                     stream's oldest queued frame (a bounded
 *                     mailbox).
 *  - skip_to_latest:  a fresh frame replaces every queued frame of
 *                     its stream (budget-1 mailbox — the consumer
 *                     only ever wants the newest detection input).
 *  - block:           nothing is dropped; the queue grows without
 *                     bound and frames age in it (the camera keeps
 *                     capturing; completions go stale instead).
 */

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace edgert::stream {

/** First-class per-stream backpressure policies. */
enum class BackpressurePolicy { kDropOldest, kSkipToLatest, kBlock };

/** Parse "drop_oldest" / "skip_to_latest" / "block". */
BackpressurePolicy parseBackpressurePolicy(const std::string &s);

/** Stable wire name of a backpressure policy. */
std::string backpressurePolicyName(BackpressurePolicy policy);

/**
 * Modeled host-side stage costs of one model's streams. Each frame
 * draws its own per-stage duration at generation time:
 * `base_ms * max(0.1, 1 + N(0, jitter_pct/100))`.
 */
struct StageModel
{
    double decode_ms = 2.0;
    double preprocess_ms = 1.0;
    double postprocess_ms = 0.5;
    double jitter_pct = 10.0;
};

/**
 * Ready-frame queue of one model: frames from all of its camera
 * streams in push order, with per-stream backpressure applied at
 * admission. Each camera keeps its queued frames in a FIFO; evictions
 * and cuts only ever pop a camera's front. A lane-wide push-order
 * ticket list merges the cameras: a ticket whose frame has left its
 * camera is stale and is popped once it reaches the front, so the
 * front ticket always names the oldest queued frame. Memory is the
 * queued frames plus the tickets pushed since the oldest of them.
 */
class StreamQueue
{
  public:
    explicit StreamQueue(int n_streams);

    /**
     * Admit a ready frame, applying `policy` with `frame_budget` to
     * its stream's queued frames. Appends the ids the admission
     * evicted to `evicted`, oldest first: none for block or when
     * under budget.
     */
    void push(std::int64_t id, int stream, double ready_s,
              BackpressurePolicy policy, int frame_budget,
              std::vector<std::int64_t> &evicted);

    /** Dequeue the oldest `n` queued frames (n <= size()), appending
     *  their ids to `out` oldest first. */
    void cut(int n, std::vector<std::int64_t> &out);

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Ready time of the oldest queued frame (queue non-empty). */
    double oldestReadySeconds() const { return oldest().ready_s; }

    /** Id of the oldest queued frame (queue non-empty). */
    std::int64_t frontId() const { return oldest().id; }

    /** Queued frames of one stream. */
    int queuedOf(int stream) const
    {
        return static_cast<int>(
            cameras_[static_cast<std::size_t>(stream)].size());
    }

  private:
    struct Frame
    {
        std::int64_t id = -1;
        double ready_s = 0.0;
        std::uint64_t seq = 0; //!< lane-wide push index
    };
    struct Ticket
    {
        int camera = 0;
        std::uint64_t seq = 0;
    };

    const Frame &oldest() const;

    /** Pop front tickets whose frame has left its camera. */
    void popStale();

    std::vector<std::deque<Frame>> cameras_;
    std::deque<Ticket> order_; //!< push order; front is never stale
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;
};

} // namespace edgert::stream

#endif // EDGERT_STREAM_PIPELINE_HH

#ifndef EDGERT_SERVE_QUEUE_HH
#define EDGERT_SERVE_QUEUE_HH

/**
 * @file
 * Per-model request queue with SLO-aware admission control.
 *
 * The queue holds admitted-but-undispatched request ids in arrival
 * order and tracks an EWMA of the arrival rate (used to estimate how
 * long a fresh request will wait for its batch to fill). Admission
 * control (serve::predictSojournSeconds, serve/core.hh) predicts the
 * request's sojourn — batch-fill wait plus queueing behind batches
 * ahead of it plus its own service — from the queue's depth and rate
 * and the backend instances' predicted-free times, and sheds the
 * request on arrival when the prediction exceeds the SLO
 * (deadline-infeasible work is rejected while it is still cheap).
 */

#include <cstdint>
#include <vector>

#include "common/arena.hh"

namespace edgert::serve {

/** Batching policy of one model's queue. */
struct BatchPolicy
{
    int max_batch = 8;          //!< coalesce at most this many
    double timeout_us = 2000.0; //!< max wait for a fuller batch
};

/** Arrival-ordered queue of admitted request ids for one model. */
class RequestQueue
{
  public:
    /** @param rate_tau_s EWMA time constant of the arrival-rate
     *         estimate. */
    explicit RequestQueue(double rate_tau_s = 0.5)
        : rate_tau_s_(rate_tau_s)
    {}

    /** Record an arrival (admitted or not) in the rate estimate. */
    void observeArrival(double now_s);

    /** Enqueue an admitted request. */
    void push(std::int64_t id, double arrival_s);

    /** Dequeue the oldest `n` requests (n <= size()), appending
     *  their ids to `out` oldest first. */
    void cut(int n, std::vector<std::int64_t> &out);

    bool empty() const { return pending_.empty(); }
    std::size_t size() const { return pending_.size(); }

    /** Arrival time of the oldest pending request. */
    double oldestArrivalSeconds() const;

    /** Id of the oldest pending request (queue must be non-empty). */
    std::int64_t frontId() const { return pending_.front().id; }

    /** EWMA arrival-rate estimate in requests/second. */
    double rateHz() const { return rate_hz_; }

  private:
    struct Pending
    {
        std::int64_t id;
        double arrival_s;
    };

    RingBuffer<Pending> pending_;
    double rate_tau_s_;
    double rate_hz_ = 0.0;
    double last_arrival_s_ = -1.0;
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_QUEUE_HH

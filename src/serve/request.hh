#ifndef EDGERT_SERVE_REQUEST_HH
#define EDGERT_SERVE_REQUEST_HH

/**
 * @file
 * Request bookkeeping shared by the EdgeServe components. A request
 * is one inference invocation of one model; all times are simulated
 * seconds on the server's event-loop clock (never wall-clock).
 */

#include <cstdint>
#include <string>

namespace edgert::serve {

/** Terminal state of one request. */
enum class Outcome
{
    kPending,   //!< still queued or in flight
    kCompleted, //!< executed; latency fields valid
    kShed,      //!< rejected by admission control on arrival
};

/** One inference request through its whole lifetime. */
struct Request
{
    std::int64_t id = 0;   //!< global arrival-order index
    int model = 0;         //!< index into the server's model table
    double arrival_s = 0.0;
    double slo_ms = 0.0;   //!< deadline relative to arrival

    Outcome outcome = Outcome::kPending;
    double dispatch_s = 0.0; //!< batch cut time (kCompleted only)
    // Replay stage boundaries of its batch (kCompleted only).
    double begin_s = 0.0;        //!< device starts the batch
    double upload_done_s = 0.0;  //!< input H2D copies finished
    double compute_done_s = 0.0; //!< kernels finished
    double done_s = 0.0;     //!< execution completion time
    int batch = 0;           //!< size of the batch it rode in
    int device = -1;         //!< device the batch ran on
    int instance = -1;       //!< engine instance the batch ran on
    int version = 0;         //!< engine version the batch ran on

    /** End-to-end latency in milliseconds (kCompleted only). */
    double latencyMs() const { return (done_s - arrival_s) * 1e3; }

    /** True when the request completed within its SLO. */
    bool sloMet() const
    {
        return outcome == Outcome::kCompleted && latencyMs() <= slo_ms;
    }
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_REQUEST_HH

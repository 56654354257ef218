#ifndef EDGERT_SERVE_REQUEST_HH
#define EDGERT_SERVE_REQUEST_HH

/**
 * @file
 * Request bookkeeping shared by the EdgeServe components. A request
 * is one inference invocation of one model; all times are simulated
 * seconds on the server's event-loop clock (never wall-clock).
 */

#include <cstdint>

namespace edgert::serve {

/** Terminal state of one request. */
enum class Outcome
{
    kPending,   //!< still queued or in flight
    kCompleted, //!< executed; latency fields valid
    kShed,      //!< rejected by admission control on arrival
};

/**
 * One inference request through its whole lifetime. Its dispatch's
 * facts (cut time, batch, engine version, stage times) live in the
 * PlannedDispatch that carried it, named by (instance, plan); the
 * completion fold writes only the outcome, done_s and that handle.
 */
struct Request
{
    std::int64_t id = 0;   //!< global arrival-order index
    double arrival_s = 0.0;
    double slo_ms = 0.0;   //!< deadline relative to arrival
    double done_s = 0.0;   //!< execution completion time (kCompleted only)
    int model = 0;         //!< index into the server's model table
    Outcome outcome = Outcome::kPending;
    /** Its dispatch is instances[instance].plan[plan]; -1 = never
     *  dispatched. */
    int instance = -1;
    std::uint32_t plan = 0;

    /** End-to-end latency in milliseconds (kCompleted only). */
    double latencyMs() const { return (done_s - arrival_s) * 1e3; }

    /** True when the request completed within its SLO. */
    bool sloMet() const
    {
        return outcome == Outcome::kCompleted && latencyMs() <= slo_ms;
    }
};
static_assert(sizeof(Request) <= 48,
              "a request holds no copy of its dispatch");

} // namespace edgert::serve

#endif // EDGERT_SERVE_REQUEST_HH

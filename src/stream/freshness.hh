#ifndef EDGERT_STREAM_FRESHNESS_HH
#define EDGERT_STREAM_FRESHNESS_HH

/**
 * @file
 * Freshness accounting for one model's camera streams.
 *
 * Streaming quality is not p99 of admitted requests — a pipeline
 * that drops nine of ten frames can post a superb p99 while the
 * detector acts on stale scenes. The tracker therefore scores
 * *terminal frame outcomes*:
 *
 *  - a dropped frame is stale by definition (its scene was never
 *    acted on);
 *  - a completed frame is stale when its end-to-end age (capture →
 *    postprocess done) exceeds the stream's stale budget;
 *  - stale-frame rate = (dropped + stale completions) /
 *    (completed + dropped).
 *
 * Frames still in the pipeline when the run ends are `in_flight`;
 * every stream must satisfy the conservation invariant
 * produced == completed + dropped + in_flight, which conserved()
 * checks (the counters are fed independently by the runner, so a
 * double-complete or a drop of a finished frame trips it).
 */

#include <cstdint>
#include <vector>

namespace edgert::stream {

/** Terminal outcome counts and age statistics of one stream. */
struct FreshnessStats
{
    std::int64_t produced = 0;
    std::int64_t completed = 0;
    std::int64_t dropped = 0;
    std::int64_t in_flight = 0;
    std::int64_t stale_completed = 0; //!< age > stale budget

    /** (dropped + stale completions) / (completed + dropped). */
    double stale_rate_pct = 0.0;

    // End-to-end frame age (capture → postprocess done) over
    // completed frames, ms.
    double age_mean_ms = 0.0;
    double age_p50_ms = 0.0;
    double age_p95_ms = 0.0;
    double age_p99_ms = 0.0;
    double age_max_ms = 0.0;
};

/** Per-stream freshness bookkeeping for one model. */
class FreshnessTracker
{
  public:
    /**
     * @param n_streams Camera streams of the model.
     * @param stale_ms  Age budget: a completed frame older than
     *        this is stale.
     */
    FreshnessTracker(int n_streams, double stale_ms);

    void onProduced(int stream);
    void onDropped(int stream);
    void onCompleted(int stream, double age_ms);

    /** A frame still in the pipeline when the run ended. */
    void onLeftInFlight(int stream);

    /** Stats of one stream (percentiles computed on demand). */
    FreshnessStats streamStats(int stream) const;

    /** Aggregate stats over every stream. */
    FreshnessStats totalStats() const;

    /** produced == completed + dropped + in_flight, per stream. */
    bool conserved() const;

  private:
    struct Counts
    {
        std::int64_t produced = 0;
        std::int64_t completed = 0;
        std::int64_t dropped = 0;
        std::int64_t in_flight = 0;
        std::int64_t stale_completed = 0;
    };

    static FreshnessStats finish(const Counts &c,
                                 std::vector<double> ages);

    double stale_ms_;
    std::vector<Counts> per_stream_;
    std::vector<std::vector<double>> ages_; //!< per stream, ms
};

} // namespace edgert::stream

#endif // EDGERT_STREAM_FRESHNESS_HH

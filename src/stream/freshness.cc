#include "stream/freshness.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"

namespace edgert::stream {

FreshnessTracker::FreshnessTracker(int n_streams, double stale_ms)
    : stale_ms_(stale_ms),
      per_stream_(static_cast<std::size_t>(n_streams)),
      ages_(static_cast<std::size_t>(n_streams))
{
    if (n_streams <= 0)
        fatal("FreshnessTracker needs at least one stream (got ",
              n_streams, ")");
    if (!(stale_ms > 0.0))
        fatal("stale budget must be positive (got ", stale_ms,
              " ms)");
}

void
FreshnessTracker::onProduced(int stream)
{
    per_stream_[static_cast<std::size_t>(stream)].produced++;
}

void
FreshnessTracker::onDropped(int stream)
{
    per_stream_[static_cast<std::size_t>(stream)].dropped++;
}

void
FreshnessTracker::onCompleted(int stream, double age_ms)
{
    auto si = static_cast<std::size_t>(stream);
    per_stream_[si].completed++;
    if (age_ms > stale_ms_)
        per_stream_[si].stale_completed++;
    ages_[si].push_back(age_ms);
}

void
FreshnessTracker::onLeftInFlight(int stream)
{
    per_stream_[static_cast<std::size_t>(stream)].in_flight++;
}

FreshnessStats
FreshnessTracker::finish(const Counts &c, std::vector<double> ages)
{
    FreshnessStats s;
    s.produced = c.produced;
    s.completed = c.completed;
    s.dropped = c.dropped;
    s.in_flight = c.in_flight;
    s.stale_completed = c.stale_completed;
    std::int64_t terminal = c.completed + c.dropped;
    if (terminal > 0)
        s.stale_rate_pct =
            100.0 *
            static_cast<double>(c.dropped + c.stale_completed) /
            static_cast<double>(terminal);
    if (!ages.empty()) {
        s.age_mean_ms = mean(ages);
        s.age_max_ms =
            *std::max_element(ages.begin(), ages.end());
        std::sort(ages.begin(), ages.end());
        s.age_p50_ms = percentileSorted(ages, 50.0);
        s.age_p95_ms = percentileSorted(ages, 95.0);
        s.age_p99_ms = percentileSorted(ages, 99.0);
    }
    return s;
}

FreshnessStats
FreshnessTracker::streamStats(int stream) const
{
    auto si = static_cast<std::size_t>(stream);
    return finish(per_stream_[si], ages_[si]);
}

FreshnessStats
FreshnessTracker::totalStats() const
{
    Counts total;
    std::vector<double> ages;
    for (std::size_t s = 0; s < per_stream_.size(); s++) {
        const Counts &c = per_stream_[s];
        total.produced += c.produced;
        total.completed += c.completed;
        total.dropped += c.dropped;
        total.in_flight += c.in_flight;
        total.stale_completed += c.stale_completed;
        ages.insert(ages.end(), ages_[s].begin(), ages_[s].end());
    }
    return finish(total, std::move(ages));
}

bool
FreshnessTracker::conserved() const
{
    for (const Counts &c : per_stream_)
        if (c.produced != c.completed + c.dropped + c.in_flight)
            return false;
    return true;
}

} // namespace edgert::stream

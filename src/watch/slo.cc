#include "watch/slo.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"

namespace edgert::watch {

SlidingWindow::SlidingWindow(double span_s, int buckets)
    : span_s_(span_s),
      width_s_(span_s / std::max(1, buckets)),
      ring_(static_cast<std::size_t>(std::max(1, buckets)))
{
    if (span_s <= 0.0)
        fatal("SlidingWindow span must be positive (got ", span_s,
              ")");
}

void
SlidingWindow::evictBefore(std::int64_t min_index)
{
    // Only the bucket indices that newly fell out of the window
    // since the last eviction can hold live counts, so the scan is
    // amortized O(1) per time advance instead of O(buckets) per
    // add.
    if (min_index <= evicted_before_)
        return;
    auto span = static_cast<std::int64_t>(ring_.size());
    std::int64_t start =
        std::max({evicted_before_, min_index - span,
                  static_cast<std::int64_t>(0)});
    for (std::int64_t i = start; i < min_index; i++) {
        Bucket &b = ring_[static_cast<std::size_t>(i) %
                          ring_.size()];
        if (b.index >= 0 && b.index < min_index) {
            total_ -= b.total;
            bad_ -= b.bad;
            b.index = -1;
            b.total = 0;
            b.bad = 0;
        }
    }
    evicted_before_ = min_index;
}

SlidingWindow::Bucket &
SlidingWindow::bucketFor(double t_s)
{
    auto idx = static_cast<std::int64_t>(
        std::floor(std::max(0.0, t_s) / width_s_));
    evictBefore(idx - static_cast<std::int64_t>(ring_.size()) + 1);
    Bucket &b =
        ring_[static_cast<std::size_t>(idx) % ring_.size()];
    if (b.index != idx) {
        // Stale slot from a lap the eviction pass already zeroed
        // (or never filled): claim it for the new bucket.
        total_ -= b.total;
        bad_ -= b.bad;
        b.index = idx;
        b.total = 0;
        b.bad = 0;
    }
    return b;
}

void
SlidingWindow::add(double t_s, bool bad)
{
    Bucket &b = bucketFor(t_s);
    b.total++;
    total_++;
    if (bad) {
        b.bad++;
        bad_++;
    }
}

void
SlidingWindow::advanceTo(double t_s)
{
    auto idx = static_cast<std::int64_t>(
        std::floor(std::max(0.0, t_s) / width_s_));
    evictBefore(idx - static_cast<std::int64_t>(ring_.size()) + 1);
}

double
SlidingWindow::badFraction() const
{
    if (total_ <= 0)
        return 0.0;
    return static_cast<double>(bad_) /
           static_cast<double>(total_);
}

const char *
alertTierName(Alert::Tier tier)
{
    switch (tier) {
      case Alert::kNone: return "none";
      case Alert::kWarn: return "warn";
      case Alert::kPage: return "page";
    }
    return "unknown";
}

void
AlertCounts::add(const Alert &a)
{
    switch (a.tier) {
      case Alert::kPage:
        pages++;
        if (first_page_s < 0.0 || a.t_s < first_page_s)
            first_page_s = a.t_s;
        break;
      case Alert::kWarn: warns++; break;
      case Alert::kNone: clears++; break;
    }
}

void
AlertCounts::writeFields(JsonWriter &w) const
{
    w.field("pages", pages);
    w.field("warns", warns);
    w.field("clears", clears);
    w.field("first_page_s", first_page_s);
}

SloTracker::SloTracker(std::string model, double objective_pct)
    : model_(std::move(model)),
      budget_(1.0 - objective_pct / 100.0),
      fast_(kFastWindowS),
      mid_(kMidWindowS),
      slow_(kSlowWindowS)
{
    if (objective_pct <= 0.0 || objective_pct >= 100.0)
        fatal("SLO objective must be in (0, 100) percent (got ",
              objective_pct, ")");
}

Alert::Tier
SloTracker::computeTier(const BurnRates &b) const
{
    if (b.fast >= kPageBurn && b.mid >= kPageBurn)
        return Alert::kPage;
    if (b.mid >= kWarnBurn && b.slow >= kWarnBurn)
        return Alert::kWarn;
    return Alert::kNone;
}

BurnRates
SloTracker::burnRates() const
{
    BurnRates b;
    b.fast = fast_.badFraction() / budget_;
    b.mid = mid_.badFraction() / budget_;
    b.slow = slow_.badFraction() / budget_;
    return b;
}

Alert
SloTracker::observe(double t_s, bool bad)
{
    fast_.add(t_s, bad);
    mid_.add(t_s, bad);
    slow_.add(t_s, bad);
    total_++;
    if (bad)
        bad_++;

    BurnRates b = burnRates();
    Alert::Tier next = computeTier(b);
    Alert a;
    a.burn = b;
    a.window_total = fast_.total();
    if (next == tier_) {
        a.t_s = -1.0; // no transition
        a.tier = tier_;
        return a;
    }
    tier_ = next;
    a.t_s = t_s;
    a.model = model_;
    a.tier = next;
    return a;
}

int
SloTrackerSet::addLane(std::string name)
{
    trackers_.emplace_back(std::move(name), objective_pct_);
    return static_cast<int>(trackers_.size()) - 1;
}

Alert
SloTrackerSet::observe(int lane, double t_s, bool bad)
{
    Alert a = trackers_.at(static_cast<std::size_t>(lane)).observe(
        t_s, bad);
    if (a.t_s >= 0.0)
        rollup_.add(a);
    return a;
}

const SloTracker *
SloTrackerSet::find(int lane) const
{
    const SloTracker &t = trackers_.at(static_cast<std::size_t>(lane));
    return t.total() > 0 ? &t : nullptr;
}

std::vector<int>
SloTrackerSet::observedByName() const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < trackers_.size(); i++)
        if (trackers_[i].total() > 0)
            out.push_back(static_cast<int>(i));
    std::sort(out.begin(), out.end(), [this](int a, int b) {
        const std::string &na =
            trackers_[static_cast<std::size_t>(a)].model();
        const std::string &nb =
            trackers_[static_cast<std::size_t>(b)].model();
        return na != nb ? na < nb : a < b;
    });
    return out;
}

} // namespace edgert::watch

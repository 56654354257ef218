#ifndef EDGERT_WATCH_SLO_HH
#define EDGERT_WATCH_SLO_HH

/**
 * @file
 * Sliding-window SLO accounting with multi-window error-budget burn
 * rates (the SRE-workbook alerting recipe adapted to simulated
 * time).
 *
 * Each served model gets one SloTracker holding three ring-bucket
 * sliding windows (fast / mid / slow: 1 s / 10 s / 60 s of sim
 * time) over its terminal request outcomes. An outcome is *bad*
 * when the request was shed or completed past its deadline. With an
 * objective of `slo_objective_pct` (e.g. 99), the error budget is
 * `1 - objective/100` and a window's burn rate is
 *
 *     burn = (bad / total) / budget          (0 when the window is
 *                                             empty)
 *
 * burn = 1 means the model is consuming budget exactly as fast as
 * the objective allows; burn = 14.4 on a 99.9% objective is the
 * classic "page: budget gone in two days" threshold. Alerting is
 * multi-window to reject blips: *page* requires the fast AND mid
 * windows both at or over 14.4, *warn* requires mid AND slow both
 * at or over 6. Only the objective is configurable. Tier changes
 * are edge-triggered: observe() returns an Alert only on a
 * transition (to page, to warn, or back to none — a "clear").
 */

#include <cstdint>
#include <string>
#include <vector>

namespace edgert {
class JsonWriter;
}

namespace edgert::watch {

/**
 * Count of (total, bad) outcomes over the trailing `span_s` seconds
 * of simulated time, kept in a ring of fixed-width time buckets.
 * The window forgets whole buckets, so its reach is span_s rounded
 * to the bucket width — the standard ring-window tradeoff.
 */
class SlidingWindow
{
  public:
    explicit SlidingWindow(double span_s, int buckets = 20);

    /** Record one outcome at time t_s (monotone non-decreasing). */
    void add(double t_s, bool bad);

    /** Slide the window forward without recording. */
    void advanceTo(double t_s);

    std::int64_t total() const { return total_; }
    std::int64_t bad() const { return bad_; }

    /** Bad fraction in [0, 1]; 0 when the window is empty. */
    double badFraction() const;

    double spanSeconds() const { return span_s_; }

  private:
    struct Bucket
    {
        std::int64_t index = -1; //!< absolute bucket number
        std::int64_t total = 0;
        std::int64_t bad = 0;
    };

    void evictBefore(std::int64_t min_index);
    Bucket &bucketFor(double t_s);

    double span_s_;
    double width_s_;
    std::vector<Bucket> ring_;
    std::int64_t total_ = 0;
    std::int64_t bad_ = 0;
    std::int64_t evicted_before_ = 0; //!< indices below are gone
};

/** Burn rates of the three windows at one instant. */
struct BurnRates
{
    double fast = 0.0;
    double mid = 0.0;
    double slow = 0.0;
};

/** One edge-triggered alert (tier transition) from a SloTracker. */
struct Alert
{
    enum Tier { kNone, kWarn, kPage };

    double t_s = 0.0;
    std::string model; //!< set only on a transition
    Tier tier = kNone; //!< new tier; kNone = the alert cleared
    BurnRates burn;    //!< burn rates at the transition
    std::int64_t window_total = 0; //!< fast-window sample count
};

/** Stable wire name of an alert tier ("none", "warn", "page"). */
const char *alertTierName(Alert::Tier tier);

/** Tally of tier transitions: pages, warns, clears and the time of
 *  the earliest page. Every field is independent of the order in
 *  which alerts are added, so a set's lanes may be fed one by one. */
struct AlertCounts
{
    std::int64_t pages = 0;
    std::int64_t warns = 0;
    std::int64_t clears = 0;
    double first_page_s = -1.0; //!< earliest page; -1 = none fired

    /** Count one transition alert (t_s >= 0). */
    void add(const Alert &a);

    /** Write pages, warns, clears and first_page_s into the object
     *  `w` has open. */
    void writeFields(JsonWriter &w) const;
};

/** Multi-window burn-rate SLO tracker for one model. */
class SloTracker
{
  public:
    static constexpr double kPageBurn = 14.4; //!< fast+mid page threshold
    static constexpr double kWarnBurn = 6.0;  //!< mid+slow warn threshold
    static constexpr double kFastWindowS = 1.0;
    static constexpr double kMidWindowS = 10.0;
    static constexpr double kSlowWindowS = 60.0;

    /** @param objective_pct SLO attainment objective, in (0, 100). */
    SloTracker(std::string model, double objective_pct);

    /**
     * Record one terminal request outcome (bad = shed or SLO miss).
     * Returns the tier-transition alert when this observation moved
     * the tracker across a threshold, else an Alert with the
     * current tier, no model name and t_s < 0 (sentinel: no
     * transition).
     */
    Alert observe(double t_s, bool bad);

    /** Current burn rates (windows as of the last observation). */
    BurnRates burnRates() const;

    Alert::Tier tier() const { return tier_; }
    const std::string &model() const { return model_; }
    std::int64_t total() const { return total_; }
    std::int64_t bad() const { return bad_; }
    double errorBudget() const { return budget_; }

  private:
    Alert::Tier computeTier(const BurnRates &b) const;

    std::string model_;
    double budget_;
    SlidingWindow fast_;
    SlidingWindow mid_;
    SlidingWindow slow_;
    Alert::Tier tier_ = Alert::kNone;
    std::int64_t total_ = 0;
    std::int64_t bad_ = 0;
};

/**
 * A family of SloTrackers sharing one objective over dense lane ids:
 * EdgeWatch's per-model trackers, fleet's per-node trackers and
 * stream's per-(model, camera) freshness trackers. Lanes are
 * registered once by name and observed by id, so the hot path never
 * builds or looks up a string; names matter only at report time. The
 * rollup tallies every lane's tier transitions so a caller gets
 * totals without walking the lanes itself. Lanes are independent
 * and the rollup is order-free, so each lane needs its own
 * observations in time order, but lanes may be fed one after another.
 */
class SloTrackerSet
{
  public:
    explicit SloTrackerSet(double objective_pct = 99.0)
        : objective_pct_(objective_pct)
    {}

    /** Register a lane named `name`; returns its id. Ids count up
     *  from 0 in registration order. */
    int addLane(std::string name);

    /** Registered lanes, observed or not. */
    std::size_t lanes() const { return trackers_.size(); }

    /**
     * Record one terminal outcome on `lane`. Returns the lane's
     * tracker alert — t_s < 0 means no tier transition, exactly as
     * SloTracker::observe.
     */
    Alert observe(int lane, double t_s, bool bad);

    /** The lane's tracker, or nullptr if never observed. Its model()
     *  is the name the lane was registered under. */
    const SloTracker *find(int lane) const;

    /** Every observed lane, sorted by name (ties by id), so any
     *  report built from the set is deterministic. */
    std::vector<int> observedByName() const;

    /** Tier transitions across every lane in the set. */
    const AlertCounts &rollup() const { return rollup_; }

  private:
    double objective_pct_;
    std::vector<SloTracker> trackers_; //!< by lane id
    AlertCounts rollup_;
};

} // namespace edgert::watch

#endif // EDGERT_WATCH_SLO_HH

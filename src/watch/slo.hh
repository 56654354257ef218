#ifndef EDGERT_WATCH_SLO_HH
#define EDGERT_WATCH_SLO_HH

/**
 * @file
 * Sliding-window SLO accounting with multi-window error-budget burn
 * rates (the SRE-workbook alerting recipe adapted to simulated
 * time).
 *
 * Each served model gets one SloTracker holding three ring-bucket
 * sliding windows (fast / mid / slow, default 1 s / 10 s / 60 s of
 * sim time) over its terminal request outcomes. An outcome is *bad*
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
 * windows both over the page threshold, *warn* requires mid AND
 * slow both over the warn threshold. Tier changes are edge-
 * triggered: observe() returns an Alert only on a transition (to
 * page, to warn, or back to none — a "clear").
 */

#include <cstdint>
#include <string>
#include <vector>

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
    std::string model;
    Tier tier = kNone; //!< new tier; kNone = the alert cleared
    BurnRates burn;    //!< burn rates at the transition
    std::int64_t window_total = 0; //!< fast-window sample count
};

/** Stable wire name of an alert tier ("none", "warn", "page"). */
const char *alertTierName(Alert::Tier tier);

/** Multi-window burn-rate SLO tracker for one model. */
class SloTracker
{
  public:
    struct Config
    {
        double objective_pct = 99.0; //!< SLO attainment objective
        double page_burn = 14.4;     //!< fast+mid page threshold
        double warn_burn = 6.0;      //!< mid+slow warn threshold
        double fast_window_s = 1.0;
        double mid_window_s = 10.0;
        double slow_window_s = 60.0;
    };

    SloTracker(std::string model, const Config &cfg);

    /**
     * Record one terminal request outcome (bad = shed or SLO miss).
     * Returns the tier-transition alert when this observation moved
     * the tracker across a threshold, else an Alert with the
     * current tier and t_s < 0 (sentinel: no transition).
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
    Config cfg_;
    double budget_;
    SlidingWindow fast_;
    SlidingWindow mid_;
    SlidingWindow slow_;
    Alert::Tier tier_ = Alert::kNone;
    std::int64_t total_ = 0;
    std::int64_t bad_ = 0;
};

/**
 * A family of SloTrackers sharing one Config over dense lane ids — the
 * per-lane rollup the streaming layer uses for per-stream freshness
 * alerts (and any future per-tenant / per-node split). Lanes are
 * registered once by name and observed by id, so the hot path never
 * builds or looks up a string; names matter only at report time. The
 * rollup accumulates every lane's tier transitions so a caller gets
 * fleet totals (pages, warns, clears, first page time) without walking
 * the lanes itself.
 */
class SloTrackerSet
{
  public:
    explicit SloTrackerSet(const SloTracker::Config &cfg)
        : cfg_(cfg)
    {}

    /** Tier-transition totals across every lane in the set. */
    struct Rollup
    {
        std::int64_t pages = 0;
        std::int64_t warns = 0;
        std::int64_t clears = 0;
        double first_page_s = -1.0; //!< -1 = no page fired
    };

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

    const Rollup &rollup() const { return rollup_; }

  private:
    SloTracker::Config cfg_;
    std::vector<SloTracker> trackers_; //!< by lane id
    Rollup rollup_;
};

} // namespace edgert::watch

#endif // EDGERT_WATCH_SLO_HH

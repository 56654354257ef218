/**
 * @file
 * EdgeWatch tests: sliding-window burn-rate math and edge-triggered
 * alert tiers, flight-recorder ring semantics, latency-inversion
 * anomaly detection, incident-dump determinism, and the end-to-end
 * serve integration — a clean scenario must fire no page alert, an
 * induced overload must page and dump an incident, and same-seed
 * runs must produce byte-identical watch reports and incidents.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "serve/server.hh"
#include "watch/anomaly.hh"
#include "watch/recorder.hh"
#include "watch/slo.hh"
#include "watch/watch.hh"

namespace edgert::watch {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream f(p);
    EXPECT_TRUE(f.good()) << "cannot read " << p;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

TEST(SlidingWindow, ForgetsOutcomesPastItsSpan)
{
    SlidingWindow w(1.0);
    w.add(0.0, true);
    w.add(0.5, false);
    EXPECT_EQ(w.total(), 2);
    EXPECT_EQ(w.bad(), 1);
    EXPECT_DOUBLE_EQ(w.badFraction(), 0.5);

    w.advanceTo(2.0); // both outcomes now older than the span
    EXPECT_EQ(w.total(), 0);
    EXPECT_DOUBLE_EQ(w.badFraction(), 0.0);
}

TEST(SloTracker, MultiWindowRejectsBlipsThenPagesAndClears)
{
    SloTracker tr("m", 99.0); // budget 0.01
    EXPECT_NEAR(tr.errorBudget(), 0.01, 1e-12);

    // A healthy baseline fills the mid/slow windows with goods.
    for (int i = 0; i < 50; i++)
        EXPECT_LT(tr.observe(i * 0.01, false).t_s, 0.0);
    EXPECT_EQ(tr.tier(), Alert::kNone);

    // A failure burst: the fast window saturates immediately, but
    // the page needs the *mid* window over threshold too — the
    // first bad outcomes must not page (blip rejection).
    int pages = 0;
    double page_t = -1.0;
    for (int i = 0; i < 20; i++) {
        Alert a = tr.observe(2.0 + i * 0.01, true);
        if (a.t_s >= 0.0 && a.tier == Alert::kPage) {
            pages++;
            page_t = a.t_s;
            EXPECT_GE(a.burn.fast, SloTracker::kPageBurn);
            EXPECT_GE(a.burn.mid, SloTracker::kPageBurn);
            EXPECT_GT(i, 0) << "paged on the first bad outcome";
        }
    }
    EXPECT_EQ(pages, 1) << "page must be edge-triggered";
    EXPECT_EQ(tr.tier(), Alert::kPage);
    EXPECT_GE(page_t, 2.0);

    // Recovery: once the bad burst leaves the mid window, the next
    // good observation clears the tier (one transition alert).
    Alert clear = tr.observe(15.0, false);
    EXPECT_GE(clear.t_s, 0.0);
    EXPECT_EQ(clear.tier, Alert::kNone);
    EXPECT_EQ(tr.tier(), Alert::kNone);
}

TEST(SloTracker, SustainedModerateBurnWarnsWithoutPaging)
{
    SloTracker tr("m", 99.0);
    int warns = 0, pages = 0;
    // 1 bad in 11 => fraction ~0.091: burn 9.1 is over the warn
    // threshold (6) but under the page threshold (14.4).
    for (int i = 0; i < 440; i++) {
        Alert a = tr.observe(i * 0.01, i % 11 == 10);
        if (a.t_s < 0.0)
            continue;
        if (a.tier == Alert::kWarn)
            warns++;
        if (a.tier == Alert::kPage)
            pages++;
    }
    EXPECT_GE(warns, 1);
    EXPECT_EQ(pages, 0);
    EXPECT_EQ(tr.tier(), Alert::kWarn);
}

/** The set's observed lanes currently at `tier`, in name order. */
std::vector<int>
lanesAtTier(const SloTrackerSet &set, Alert::Tier tier)
{
    std::vector<int> out;
    for (int lane : set.observedByName())
        if (set.find(lane)->tier() == tier)
            out.push_back(lane);
    return out;
}

TEST(SloTrackerSet, KeysTrackIndependentlyAndRollupAccumulates)
{
    SloTrackerSet set(99.0);
    // Registered out of name order; cam2 is never observed.
    const int cam1 = set.addLane("cam1");
    const int cam2 = set.addLane("cam2");
    const int cam0 = set.addLane("cam0");
    EXPECT_EQ(set.lanes(), 3u);
    EXPECT_TRUE(set.observedByName().empty());
    EXPECT_EQ(set.find(cam0), nullptr);
    EXPECT_EQ(set.rollup().pages, 0);
    EXPECT_DOUBLE_EQ(set.rollup().first_page_s, -1.0);

    // cam1 burns hard (every outcome bad) while cam0 stays clean:
    // only cam1's tracker must transition, and the rollup must show
    // exactly its page.
    for (int i = 0; i < 200; i++) {
        set.observe(cam0, i * 0.01, false);
        set.observe(cam1, i * 0.01, true);
    }
    ASSERT_EQ(set.observedByName().size(), 2u);
    ASSERT_NE(set.find(cam0), nullptr);
    ASSERT_NE(set.find(cam1), nullptr);
    EXPECT_EQ(set.find(cam1)->model(), "cam1");
    EXPECT_EQ(set.find(cam2), nullptr);
    EXPECT_EQ(set.find(cam0)->tier(), Alert::kNone);
    EXPECT_EQ(set.find(cam1)->tier(), Alert::kPage);
    EXPECT_EQ(set.find(cam0)->bad(), 0);
    EXPECT_EQ(set.find(cam1)->bad(), 200);
    EXPECT_EQ(set.rollup().pages, 1);
    EXPECT_EQ(set.rollup().clears, 0);
    EXPECT_GE(set.rollup().first_page_s, 0.0);

    // Observed lanes list by name; tier filtering picks out the
    // burning camera.
    EXPECT_EQ(set.observedByName(), (std::vector<int>{cam0, cam1}));
    EXPECT_EQ(lanesAtTier(set, Alert::kPage), std::vector<int>{cam1});
    EXPECT_EQ(lanesAtTier(set, Alert::kNone), std::vector<int>{cam0});

    // cam1 recovers: the clear lands in the rollup, pages stay 1.
    for (int i = 200; i < 20000; i++)
        set.observe(cam1, i * 0.01, false);
    EXPECT_EQ(set.find(cam1)->tier(), Alert::kNone);
    EXPECT_EQ(set.rollup().pages, 1);
    EXPECT_EQ(set.rollup().clears, 1);
}

TEST(SloTrackerSet, ObservedLanesSortByNameNotId)
{
    // Twelve cameras registered in index order list as a string sort
    // does: cam0, cam1, cam10, cam11, cam2, ...
    SloTrackerSet set;
    for (int c = 0; c < 12; c++)
        set.observe(set.addLane("m/cam" + std::to_string(c)), 0.0,
                    false);
    std::vector<std::string> names;
    for (int lane : set.observedByName())
        names.push_back(set.find(lane)->model());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "m/cam0", "m/cam1", "m/cam10", "m/cam11",
                         "m/cam2", "m/cam3", "m/cam4", "m/cam5",
                         "m/cam6", "m/cam7", "m/cam8", "m/cam9"}));
}

TEST(SloTrackerSet, SharedConfigAppliesToEveryKey)
{
    // A permissive objective (50%) halves no one: 30% bad never
    // burns past 1 on any lane, so no tracker leaves kNone.
    SloTrackerSet set(50.0);
    const int a = set.addLane("a");
    const int b = set.addLane("b");
    for (int i = 0; i < 300; i++) {
        set.observe(a, i * 0.01, i % 10 < 3);
        set.observe(b, i * 0.01, i % 10 < 3);
    }
    EXPECT_EQ(set.find(a)->tier(), Alert::kNone);
    EXPECT_EQ(set.find(b)->tier(), Alert::kNone);
    EXPECT_EQ(set.rollup().pages, 0);
    EXPECT_EQ(set.rollup().warns, 0);
    EXPECT_TRUE(lanesAtTier(set, Alert::kPage).empty());
}

TEST(SloTrackerSet, RollupIgnoresLaneInterleaving)
{
    // Three lanes over 12 s at 20 Hz. Lanes 0 and 1 burn (every
    // outcome bad) for one second and recover; lane 1 burns first,
    // so lane-by-lane feeding meets lane 0's later page first.
    struct Obs
    {
        double t;
        int lane;
        bool bad;
    };
    const double burn_start[] = {4.0, 2.0, -1.0};
    std::vector<Obs> merged; // time order, lanes interleaved
    for (int k = 0; k < 240; k++)
        for (int lane = 0; lane < 3; lane++) {
            const double t = k * 0.05;
            merged.push_back({t, lane,
                              t >= burn_start[lane] &&
                                  t < burn_start[lane] + 1.0});
        }
    std::vector<Obs> by_lane = merged;
    std::stable_sort(by_lane.begin(), by_lane.end(),
                     [](const Obs &a, const Obs &b) {
                         return a.lane < b.lane;
                     });

    auto feed = [](const std::vector<Obs> &obs) {
        SloTrackerSet set(99.0);
        for (int lane = 0; lane < 3; lane++)
            set.addLane("cam" + std::to_string(lane));
        for (const Obs &o : obs)
            set.observe(o.lane, o.t, o.bad);
        return set;
    };
    const SloTrackerSet a = feed(merged);
    const SloTrackerSet b = feed(by_lane);
    for (int lane = 0; lane < 3; lane++) {
        const SloTracker *ta = a.find(lane);
        const SloTracker *tb = b.find(lane);
        ASSERT_NE(ta, nullptr);
        ASSERT_NE(tb, nullptr);
        EXPECT_EQ(ta->tier(), tb->tier());
        EXPECT_EQ(ta->total(), tb->total());
        EXPECT_EQ(ta->bad(), tb->bad());
        EXPECT_EQ(ta->burnRates().fast, tb->burnRates().fast);
        EXPECT_EQ(ta->burnRates().mid, tb->burnRates().mid);
        EXPECT_EQ(ta->burnRates().slow, tb->burnRates().slow);
    }
    EXPECT_EQ(a.rollup().pages, 2);
    EXPECT_EQ(a.rollup().pages, b.rollup().pages);
    EXPECT_EQ(a.rollup().warns, b.rollup().warns);
    EXPECT_EQ(a.rollup().clears, b.rollup().clears);
    // Lane 1's page, early in its burn second.
    EXPECT_GE(a.rollup().first_page_s, 2.0);
    EXPECT_LT(a.rollup().first_page_s, 3.0);
    EXPECT_EQ(a.rollup().first_page_s, b.rollup().first_page_s);
}

TEST(FlightRecorder, RingKeepsTheLastDepthEventsOldestFirst)
{
    FlightRecorder rec(4);
    for (int i = 0; i < 10; i++) {
        FlightEvent e;
        e.t_s = i;
        e.id = i;
        rec.record(e);
    }
    EXPECT_EQ(rec.totalRecorded(), 10);
    std::vector<FlightEvent> got = rec.snapshot();
    ASSERT_EQ(got.size(), 4u);
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(got[static_cast<std::size_t>(i)].id, 6 + i);
}

TEST(FlightRecorder, DepthOneKeepsOnlyTheNewestEvent)
{
    FlightRecorder rec(1);
    for (int i = 0; i < 3; i++) {
        FlightEvent e;
        e.id = i;
        rec.record(e);
    }
    std::vector<FlightEvent> got = rec.snapshot();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, 2);
}

TEST(AnomalyDetector, FlagsCapabilityOrderInversionOnce)
{
    AnomalyDetector::Config cfg;
    // Device 1 has twice the capability score of device 0 but will
    // observe twice the latency: the paper's F4/F5 inversion.
    AnomalyDetector det(cfg, {"weak", "strong"}, {10.0, 20.0});
    int findings = 0;
    for (int i = 0; i < 2 * cfg.min_samples; i++) {
        det.observe(i * 0.01, "m", 0, 5.0);
        auto f = det.observe(i * 0.01, "m", 1, 10.0);
        if (f) {
            findings++;
            EXPECT_EQ(f->fast_device, 0);
            EXPECT_EQ(f->slow_device, 1);
            EXPECT_EQ(f->fast_device_name, "weak");
            EXPECT_EQ(f->slow_device_name, "strong");
            EXPECT_DOUBLE_EQ(f->fast_median_ms, 5.0);
            EXPECT_DOUBLE_EQ(f->slow_median_ms, 10.0);
            EXPECT_NEAR(f->margin_pct, 100.0, 1e-9);
        }
    }
    EXPECT_EQ(findings, 1) << "one finding per (model, pair)";
    EXPECT_EQ(det.findings().size(), 1u);
}

TEST(AnomalyDetector, ExpectedOrderingAndSmallSamplesStaySilent)
{
    AnomalyDetector::Config cfg;
    AnomalyDetector det(cfg, {"weak", "strong"}, {10.0, 20.0});
    // Strong device faster, as capability predicts: no finding.
    for (int i = 0; i < 2 * cfg.min_samples; i++) {
        EXPECT_FALSE(det.observe(i * 0.01, "m", 0, 10.0));
        EXPECT_FALSE(det.observe(i * 0.01, "m", 1, 5.0));
    }
    // Inverted but under min_samples: still no finding.
    for (int i = 0; i < cfg.min_samples - 1; i++) {
        det.observe(i * 0.01, "n", 0, 5.0);
        EXPECT_FALSE(det.observe(i * 0.01, "n", 1, 10.0));
    }
}

/**
 * Brute-force reference of AnomalyDetector: each window is a plain
 * FIFO and every median copies and sorts it. The comparison logic is
 * the detector's, restated.
 */
class ReferenceDetector
{
  public:
    ReferenceDetector(const AnomalyDetector::Config &cfg,
                      std::vector<double> scores)
        : cfg_(cfg), scores_(std::move(scores))
    {}

    std::optional<AnomalyFinding>
    observe(double t_s, const std::string &model, int device,
            double latency_ms)
    {
        Series &s = series_[{model, device}];
        s.window.push_back(latency_ms);
        if (static_cast<int>(s.window.size()) > cfg_.window)
            s.window.erase(s.window.begin());
        s.count++;
        if (s.count < cfg_.min_samples)
            return std::nullopt;
        const double mine = median(s.window);
        for (int other = 0; other < static_cast<int>(scores_.size());
             other++) {
            auto it = series_.find({model, other});
            if (other == device || it == series_.end() ||
                it->second.count < cfg_.min_samples)
                continue;
            const double theirs = median(it->second.window);
            const double my_score = scores_[static_cast<std::size_t>(device)];
            const double their_score =
                scores_[static_cast<std::size_t>(other)];
            if (my_score == their_score)
                continue;
            const bool strong_is_me = my_score > their_score;
            const int weak = strong_is_me ? other : device;
            const int strong = strong_is_me ? device : other;
            const double strong_median = strong_is_me ? mine : theirs;
            const double weak_median = strong_is_me ? theirs : mine;
            if (strong_median <=
                weak_median * (1.0 + cfg_.margin_pct / 100.0))
                continue;
            if (!flagged_.insert({model, weak, strong}).second)
                continue;
            AnomalyFinding f;
            f.t_s = t_s;
            f.model = model;
            f.fast_device = weak;
            f.slow_device = strong;
            f.fast_median_ms = weak_median;
            f.slow_median_ms = strong_median;
            f.margin_pct = (strong_median / weak_median - 1.0) * 100.0;
            return f;
        }
        return std::nullopt;
    }

  private:
    struct Series
    {
        std::vector<double> window;
        std::int64_t count = 0;
    };

    static double
    median(std::vector<double> v)
    {
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }

    AnomalyDetector::Config cfg_;
    std::vector<double> scores_;
    std::map<std::pair<std::string, int>, Series> series_;
    std::set<std::tuple<std::string, int, int>> flagged_;
};

TEST(AnomalyDetector, IncrementalMediansMatchCopyAndSort)
{
    // Seeded latencies drawn from a few repeated levels; each model's
    // stronger devices degrade at a model-specific step, so
    // inversions are confirmed at many points, several window
    // wrap-arounds in. Every finding, both medians and the margin
    // included, must equal the copy-and-sort reference's.
    const std::vector<double> scores = {10.0, 20.0, 30.0};
    for (int window : {1, 2, 63, 64}) {
        AnomalyDetector::Config cfg;
        cfg.window = window;
        cfg.min_samples = std::min(window, 16);
        cfg.margin_pct = 5.0;
        AnomalyDetector det(cfg, {"a", "b", "c"}, scores);
        ReferenceDetector ref(cfg, scores);
        Rng rng(static_cast<std::uint64_t>(window));
        const int steps = 8 * window + 64;
        auto draw_step = [&] {
            return static_cast<int>(
                rng.below(static_cast<std::uint64_t>(steps)));
        };
        std::vector<std::pair<int, int>> degrade_at; // per model: b, c
        for (int m = 0; m < 12; m++) {
            const int b_at = draw_step();
            degrade_at.emplace_back(b_at, draw_step());
        }
        int matched = 0;
        double last_t = 0.0;
        for (int step = 0; step < steps; step++) {
            for (int m = 0; m < 12; m++) {
                const std::string model = "m" + std::to_string(m);
                const auto [b_at, c_at] =
                    degrade_at[static_cast<std::size_t>(m)];
                const double level[3] = {4.0, step < b_at ? 3.0 : 5.5,
                                         step < c_at ? 2.0 : 7.0};
                for (int d = 0; d < 3; d++) {
                    const double ms =
                        level[d] + 0.5 * static_cast<double>(rng.below(3));
                    const double t = static_cast<double>(step);
                    auto got = det.observe(t, model, d, ms);
                    auto want = ref.observe(t, model, d, ms);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << "window " << window << " step " << step;
                    if (!got)
                        continue;
                    EXPECT_EQ(got->t_s, want->t_s);
                    EXPECT_EQ(got->model, want->model);
                    EXPECT_EQ(got->fast_device, want->fast_device);
                    EXPECT_EQ(got->slow_device, want->slow_device);
                    EXPECT_EQ(got->fast_median_ms, want->fast_median_ms);
                    EXPECT_EQ(got->slow_median_ms, want->slow_median_ms);
                    EXPECT_EQ(got->margin_pct, want->margin_pct);
                    matched++;
                    last_t = got->t_s;
                }
            }
        }
        EXPECT_EQ(static_cast<std::size_t>(matched), det.findings().size());
        EXPECT_GE(matched, 12) << "window " << window;
        EXPECT_GE(last_t, 3.0 * window) << "window " << window;
    }
}

/** Synthetic overload feed: pages, dumps an incident, and the whole
 *  artifact set is byte-deterministic. */
void
driveWatch(EdgeWatch &ew)
{
    std::int64_t id = 0;
    for (int i = 0; i < 50; i++) {
        ew.onAdmit(i * 0.01, 0, id);
        RequestTrace rt;
        rt.id = id++;
        rt.model = 0;
        rt.device = 0;
        rt.arrival_s = i * 0.01;
        rt.dispatch_s = rt.arrival_s + 0.001;
        rt.begin_s = rt.dispatch_s + 0.0005;
        rt.upload_done_s = rt.begin_s + 0.0005;
        rt.compute_done_s = rt.upload_done_s + 0.002;
        rt.done_s = rt.compute_done_s + 0.0005;
        ew.onComplete(rt);
    }
    for (int i = 0; i < 30; i++)
        ew.onShed(1.0 + i * 0.01, 0, id++);
    ew.onSwapBegin(2.0, 0, 7);
    ew.onSwapRollback(2.1, 0, "latency_regression");
    ew.finish();
}

TEST(EdgeWatch, OverloadPagesAndDumpsByteIdenticalIncidents)
{
    WatchConfig cfg;
    cfg.enabled = true;
    EdgeWatch a(cfg, {"m"}, {10.0}, {"d0"}, {1.0});
    EdgeWatch b(cfg, {"m"}, {10.0}, {"d0"}, {1.0});
    driveWatch(a);
    driveWatch(b);

    EXPECT_GE(a.summary().alert_counts.pages, 1);
    EXPECT_GE(a.summary().alert_counts.first_page_s, 0.0);
    // One incident for the page, one for the swap rollback.
    ASSERT_GE(a.incidents().size(), 2u);
    EXPECT_EQ(a.incidents()[0].first, "000-page_alert.json");

    EXPECT_EQ(a.reportJson(), b.reportJson());
    ASSERT_EQ(a.incidents().size(), b.incidents().size());
    for (std::size_t i = 0; i < a.incidents().size(); i++) {
        EXPECT_EQ(a.incidents()[i].first, b.incidents()[i].first);
        EXPECT_EQ(a.incidents()[i].second,
                  b.incidents()[i].second);
    }

    std::string err;
    EXPECT_TRUE(jsonValid(a.reportJson(), &err)) << err;
    for (const auto &[name, content] : a.incidents())
        EXPECT_TRUE(jsonValid(content, &err)) << name << ": " << err;
}

TEST(EdgeWatch, UnobservedModelReportsNoneWithZeroBurn)
{
    WatchConfig cfg;
    cfg.enabled = true;
    EdgeWatch ew(cfg, {"m0", "m1"}, {10.0, 10.0}, {"d0"}, {1.0});
    for (int i = 0; i < 40; i++)
        ew.onShed(i * 0.01, 0, i);
    ew.finish();

    const std::vector<ModelWatchStats> &models = ew.summary().models;
    ASSERT_EQ(models.size(), 2u);
    EXPECT_EQ(models[0].observed, 40);
    EXPECT_EQ(models[0].tier, Alert::kPage);
    EXPECT_EQ(models[1].model, "m1");
    EXPECT_EQ(models[1].tier, Alert::kNone);
    EXPECT_EQ(models[1].burn.fast, 0.0);
    EXPECT_EQ(models[1].burn.mid, 0.0);
    EXPECT_EQ(models[1].burn.slow, 0.0);
    EXPECT_EQ(models[1].observed, 0);
    EXPECT_EQ(models[1].bad, 0);
}

TEST(EdgeWatch, IncidentCapCountsWithoutDumping)
{
    WatchConfig cfg;
    cfg.enabled = true;
    cfg.max_incidents = 2;
    EdgeWatch ew(cfg, {"m"}, {10.0}, {"d0"}, {1.0});
    for (int i = 0; i < 5; i++)
        ew.onSwapRollback(i * 0.1, 0, "load_failure");
    ew.finish();
    EXPECT_EQ(ew.incidents().size(), 2u);
    EXPECT_EQ(ew.summary().incidents, 5);
}

// ---------------------------------------------------------------
// Serve-path integration.
// ---------------------------------------------------------------

serve::ServeConfig
watchedConfig(double qps, double slo_ms)
{
    serve::ServeConfig cfg;
    serve::ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = slo_ms;
    mc.arrivals.qps = qps;
    mc.batching.max_batch = 4;
    cfg.models.push_back(mc);
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.duration_s = 0.5;
    cfg.watch.enabled = true;
    return cfg;
}

TEST(ServeWatch, CleanScenarioFiresNoPageAlert)
{
    serve::ServeReport rep = serve::runServer(watchedConfig(150, 50));
    ASSERT_TRUE(rep.watch.enabled);
    EXPECT_EQ(rep.watch.alert_counts.pages, 0);
    EXPECT_EQ(rep.watch.incidents, 0);
    EXPECT_LT(rep.watch.alert_counts.first_page_s, 0.0);
    EXPECT_EQ(rep.watch.admitted + rep.watch.shed,
              rep.models.front().offered);
    EXPECT_EQ(rep.watch.completed, rep.models.front().completed);

    // Stage attribution covers the full latency: the stage means
    // must sum to the end-to-end mean.
    ASSERT_EQ(rep.watch.models.size(), 1u);
    const ModelWatchStats &m = rep.watch.models.front();
    const StageSums &st = m.stage_mean_ms;
    EXPECT_GT(st.compute, 0.0);
    EXPECT_NEAR(st.queue + st.dispatch_wait + st.upload + st.compute +
                    st.download,
                st.total, 1e-6);

    // The slowest retained request is the report's max latency.
    ASSERT_FALSE(rep.watch.slow_requests.empty());
    EXPECT_NEAR(rep.watch.slow_requests.front().totalMs(),
                rep.models.front().max_ms, 1e-6);
}

TEST(ServeWatch, InducedOverloadPagesWithFlightRecorderDump)
{
    serve::ServeReport rep = serve::runServer(watchedConfig(900, 10));
    ASSERT_TRUE(rep.watch.enabled);
    EXPECT_GE(rep.watch.alert_counts.pages, 1);
    EXPECT_GE(rep.watch.alert_counts.first_page_s, 0.0);
    EXPECT_LE(rep.watch.alert_counts.first_page_s, 0.5);
    EXPECT_GE(rep.watch.incidents, 1);
    EXPECT_GT(rep.watch.shed, 0);
}

TEST(ServeWatch, WatchTogglePreservesReportBytes)
{
    serve::ServeConfig cfg = watchedConfig(300, 20);
    serve::ServeConfig off_cfg = cfg;
    off_cfg.watch.enabled = false;

    std::string on = serve::runServer(cfg).toJson();
    std::string off = serve::runServer(off_cfg).toJson();

    EXPECT_EQ(off.find("\"watch\""), std::string::npos);
    std::size_t pos = on.find(",\n  \"watch\": {");
    ASSERT_NE(pos, std::string::npos);
    // Everything before the trailing watch key must be the exact
    // watch-off document (minus its closing "\n}\n").
    ASSERT_GT(off.size(), 3u);
    EXPECT_EQ(on.substr(0, pos), off.substr(0, off.size() - 3));

    std::string err;
    EXPECT_TRUE(jsonValid(on, &err)) << err;
}

TEST(ServeWatch, SameSeedRunsProduceByteIdenticalArtifacts)
{
    fs::path dir1 =
        fs::path(::testing::TempDir()) / "edgewatch_run1";
    fs::path dir2 =
        fs::path(::testing::TempDir()) / "edgewatch_run2";
    fs::create_directories(dir1);
    fs::create_directories(dir2);

    auto run = [](const fs::path &dir) {
        serve::ServeConfig cfg = watchedConfig(900, 10);
        cfg.watch.out_path = (dir / "watch.json").string();
        cfg.watch.incident_prefix = (dir / "watch.").string();
        return serve::runServer(cfg);
    };
    serve::ServeReport r1 = run(dir1);
    serve::ServeReport r2 = run(dir2);
    EXPECT_EQ(r1.toJson(), r2.toJson());

    std::string w1 = slurp(dir1 / "watch.json");
    std::string w2 = slurp(dir2 / "watch.json");
    EXPECT_EQ(w1, w2);
    std::string err;
    EXPECT_TRUE(jsonValid(w1, &err)) << err;

    std::vector<fs::path> incidents;
    for (const auto &ent : fs::directory_iterator(dir1))
        if (ent.path().filename() != "watch.json")
            incidents.push_back(ent.path());
    ASSERT_FALSE(incidents.empty());
    std::sort(incidents.begin(), incidents.end());
    for (const fs::path &p : incidents) {
        std::string c1 = slurp(p);
        std::string c2 = slurp(dir2 / p.filename());
        EXPECT_EQ(c1, c2) << p.filename();
        EXPECT_TRUE(jsonValid(c1, &err))
            << p.filename() << ": " << err;
    }

    fs::remove_all(dir1);
    fs::remove_all(dir2);
}

} // namespace
} // namespace edgert::watch

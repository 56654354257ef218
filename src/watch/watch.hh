#ifndef EDGERT_WATCH_WATCH_HH
#define EDGERT_WATCH_WATCH_HH

/**
 * @file
 * EdgeWatch — request-scoped observability for the serving fleet.
 *
 * The serve path feeds EdgeWatch a deterministic, time-ordered
 * stream of structured events (admissions, sheds, dispatches,
 * completions with per-stage timestamps, hot-swap lifecycle). From
 * that one feed it maintains:
 *
 *  - RequestTrace attribution: every completed request carries its
 *    queue / dispatch-wait / upload / compute / download breakdown,
 *    and the slowest N requests are retained for the report and the
 *    chrome-trace export;
 *  - a SloTrackerSet with one lane per model (multi-window
 *    error-budget burn rates, page/warn alerts — see slo.hh);
 *  - a FlightRecorder ring of recent events, dumped as a
 *    byte-deterministic JSON incident file on every page alert and
 *    swap rollback;
 *  - an AnomalyDetector flagging per-(model, device) latency-
 *    ordering inversions à la the paper's F4/F5.
 *
 * Everything runs on simulated time only — EdgeWatch never reads a
 * clock — so for a fixed (config, seed) the watch report and every
 * incident file are byte-identical across runs and thread counts.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "watch/anomaly.hh"
#include "watch/recorder.hh"
#include "watch/slo.hh"

namespace edgert::watch {

/** EdgeWatch knobs (all time in simulated seconds). */
struct WatchConfig
{
    bool enabled = false;

    /** Watch report JSON path ("" = keep in memory only). */
    std::string out_path;

    /** Incident file prefix; files are `<prefix>NNN-<reason>.json`
     *  ("" = keep incident documents in memory only). */
    std::string incident_prefix;

    /** SLO objective of every SloTracker (the burn thresholds and
     *  windows are SloTracker constants). */
    double slo_objective_pct = 99.0;

    int flight_recorder_depth = 256;
    int max_incidents = 8;  //!< later triggers only count
};

/** Slowest completed requests kept in WatchSummary::slow_requests. */
inline constexpr int kSlowTraceCount = 8;

/** Per-stage attribution of one request (simulated seconds). */
struct RequestTrace
{
    std::int64_t id = -1;
    int model = -1;
    int device = -1;
    int instance = -1;
    int batch = 0;
    int version = 0;

    double arrival_s = 0.0;      //!< admission
    double dispatch_s = 0.0;     //!< batch cut (leaves host queue)
    double begin_s = 0.0;        //!< device starts the batch
    double upload_done_s = 0.0;  //!< input H2D copies finished
    double compute_done_s = 0.0; //!< kernels finished
    double done_s = 0.0;         //!< output D2H copies finished

    /** Host-queue time incl. batch formation. */
    double queueMs() const { return (dispatch_s - arrival_s) * 1e3; }
    /** Release-to-start wait on the device (stream contention). */
    double dispatchWaitMs() const
    {
        return (begin_s - dispatch_s) * 1e3;
    }
    double uploadMs() const
    {
        return (upload_done_s - begin_s) * 1e3;
    }
    double computeMs() const
    {
        return (compute_done_s - upload_done_s) * 1e3;
    }
    double downloadMs() const
    {
        return (done_s - compute_done_s) * 1e3;
    }
    double totalMs() const { return (done_s - arrival_s) * 1e3; }
};

/** Per-stage sums of n completed requests' attribution, ms; mean()
 *  turns them into per-stage means. */
struct StageSums
{
    std::int64_t n = 0;
    double queue = 0.0, dispatch_wait = 0.0, upload = 0.0,
           compute = 0.0, download = 0.0, total = 0.0;

    /** Add one completed request's breakdown. */
    void add(const RequestTrace &rt);

    /** Each stage's mean over the n requests; all 0 when n is 0. */
    StageSums mean() const;

    /** Write the six stage fields (queue .. total) into the object
     *  `w` has open. */
    void writeFields(JsonWriter &w) const;
};

/** End-of-run per-model watch outcome. */
struct ModelWatchStats
{
    std::string model;
    Alert::Tier tier = Alert::kNone; //!< tier at end of run
    BurnRates burn;                  //!< burn rates at end of run
    std::int64_t observed = 0;       //!< terminal outcomes seen
    std::int64_t bad = 0;            //!< sheds + SLO misses
    StageSums stage_mean_ms; //!< means over completed requests
};

/** Whole-run watch outcome (embedded in the ServeReport). */
struct WatchSummary
{
    bool enabled = false;
    std::int64_t admitted = 0;
    std::int64_t shed = 0;
    std::int64_t completed = 0;
    AlertCounts alert_counts;
    std::int64_t anomalies = 0;
    std::int64_t incidents = 0;

    std::vector<ModelWatchStats> models;
    std::vector<Alert> alerts;
    std::vector<AnomalyFinding> anomaly_findings;
    std::vector<RequestTrace> slow_requests; //!< worst N, slowest first
};

/** The watch facade the serve path drives. */
class EdgeWatch
{
  public:
    /**
     * @param cfg           Knobs (cfg.enabled is not consulted —
     *        constructing an EdgeWatch means watching).
     * @param models        Served model names, model-index order.
     * @param model_slo_ms  Deadline per model (same order).
     * @param device_names  Fleet device names, device-index order.
     * @param device_scores Capability score per device (higher =
     *        expected faster); peak FLOPS.
     */
    EdgeWatch(const WatchConfig &cfg,
              std::vector<std::string> models,
              std::vector<double> model_slo_ms,
              std::vector<std::string> device_names,
              std::vector<double> device_scores);

    // --- the event feed (strictly non-decreasing t_s) ---
    void onAdmit(double t_s, int model, std::int64_t id);
    void onShed(double t_s, int model, std::int64_t id);
    void onDispatch(double t_s, int model, int batch, int device,
                    std::int64_t first_id);
    void onComplete(const RequestTrace &rt);
    void onSwapBegin(double t_s, int model,
                     std::uint64_t build_id);
    void onSwapCommit(double t_s, int model,
                      std::uint64_t build_id);
    void onSwapRollback(double t_s, int model,
                        const std::string &reason);

    /** Close the run: freeze the per-model summary. */
    void finish();

    const WatchSummary &summary() const { return summary_; }

    /** Canonical watch-report JSON (valid after finish()). */
    std::string reportJson() const;

    /** Incident documents dumped so far: (filename, content). */
    const std::vector<std::pair<std::string, std::string>> &
    incidents() const
    {
        return incidents_;
    }

    /**
     * Write the report to cfg.out_path and each incident next to
     * cfg.incident_prefix (no-ops for empty paths/prefix).
     */
    void writeFiles() const;

    const FlightRecorder &recorder() const { return recorder_; }

  private:
    void handleAlert(const Alert &a);
    void dumpIncident(double t_s, const std::string &reason,
                      const std::string &model,
                      const std::string &detail);
    const std::string &modelName(int model) const;

    WatchConfig cfg_;
    std::vector<std::string> models_;
    std::vector<double> slo_ms_;
    std::vector<std::string> device_names_;

    SloTrackerSet trackers_; //!< lane = model index
    FlightRecorder recorder_;
    AnomalyDetector anomaly_;
    std::vector<StageSums> stages_; //!< per model

    WatchSummary summary_;
    std::vector<std::pair<std::string, std::string>> incidents_;
    bool finished_ = false;
};

} // namespace edgert::watch

#endif // EDGERT_WATCH_WATCH_HH

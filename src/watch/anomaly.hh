#ifndef EDGERT_WATCH_ANOMALY_HH
#define EDGERT_WATCH_ANOMALY_HH

/**
 * @file
 * Latency-ordering anomaly detection across the device fleet.
 *
 * The paper's findings F4/F5 are the motivation: some engines run
 * genuinely *faster* on the weaker Xavier NX than on the AGX — an
 * inversion of the ordering the devices' raw capability predicts.
 * The detector keeps a windowed median of observed per-request
 * latency for every (model, device) pair (each window is also kept
 * sorted as it slides, so a median is an index, not a sort); when
 * the device with the higher capability score (peak FLOPS) shows a
 * median at least `margin_pct` *slower* than a weaker device on the
 * same model — with both medians resting on enough samples — it
 * flags one AnomalyFinding per (model, device-pair) for the run.
 *
 * A flagged inversion is not necessarily a fault (the paper shows
 * real engines doing this), which is exactly why it is surfaced as
 * an observability finding rather than an error: a fleet scheduler
 * that assumes capability-ordered latency is leaving throughput on
 * the table.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace edgert::watch {

/** One detected latency-ordering inversion. */
struct AnomalyFinding
{
    double t_s = 0.0;       //!< time the inversion was confirmed
    std::string model;
    int fast_device = -1;   //!< weaker device that is winning
    int slow_device = -1;   //!< stronger device that is losing
    std::string fast_device_name;
    std::string slow_device_name;
    double fast_median_ms = 0.0; //!< weaker device's median
    double slow_median_ms = 0.0; //!< stronger device's median
    double margin_pct = 0.0;     //!< observed margin, percent
};

/** Windowed-median latency-inversion detector. */
class AnomalyDetector
{
  public:
    struct Config
    {
        int window = 64;        //!< latencies kept per (model,dev)
        int min_samples = 16;   //!< medians need this many samples
        double margin_pct = 10.0; //!< inversion must exceed this
    };

    /**
     * @param cfg           Detector knobs.
     * @param device_names  Fleet device names, index order.
     * @param device_scores Capability score per device (higher =
     *        expected faster; peak FLOPS is the natural choice).
     */
    AnomalyDetector(const Config &cfg,
                    std::vector<std::string> device_names,
                    std::vector<double> device_scores);

    /**
     * Record one completed request's latency; returns a finding the
     * first time each (model, device-pair) inversion is confirmed.
     */
    std::optional<AnomalyFinding> observe(double t_s,
                                          const std::string &model,
                                          int device,
                                          double latency_ms);

    const std::vector<AnomalyFinding> &findings() const
    {
        return findings_;
    }

  private:
    struct Series
    {
        std::vector<double> ring;   //!< last `window` latencies
        std::vector<double> sorted; //!< the same values, ascending
        std::int64_t count = 0;
    };

    static double medianOf(const Series &s);

    Config cfg_;
    std::vector<std::string> names_;
    std::vector<double> scores_;
    std::map<std::pair<std::string, int>, Series> series_;
    std::map<std::pair<std::string, std::pair<int, int>>, bool>
        flagged_;
    std::vector<AnomalyFinding> findings_;
};

} // namespace edgert::watch

#endif // EDGERT_WATCH_ANOMALY_HH

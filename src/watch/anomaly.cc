#include "watch/anomaly.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace edgert::watch {

AnomalyDetector::AnomalyDetector(
    const Config &cfg, std::vector<std::string> device_names,
    std::vector<double> device_scores)
    : cfg_(cfg),
      names_(std::move(device_names)),
      scores_(std::move(device_scores))
{
    if (names_.size() != scores_.size())
        fatal("AnomalyDetector: ", names_.size(), " device names vs ",
              scores_.size(), " scores");
    if (cfg.window < 1 || cfg.min_samples < 1)
        fatal("AnomalyDetector window/min_samples must be positive");
}

double
AnomalyDetector::medianOf(const Series &s)
{
    const std::vector<double> &v = s.sorted;
    std::size_t n = v.size();
    if (n % 2 == 1)
        return v[n / 2];
    return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<AnomalyFinding>
AnomalyDetector::observe(double t_s, const std::string &model,
                         int device, double latency_ms)
{
    // An ordering inversion needs two devices; with fewer there is
    // nothing to compare, so skip the per-sample median work.
    if (names_.size() < 2)
        return std::nullopt;
    if (device < 0 || device >= static_cast<int>(names_.size()))
        return std::nullopt;
    // Slide the window: the sorted copy drops one instance of the
    // evicted value and takes the new one at its ordered position.
    Series &s = series_[{model, device}];
    std::vector<double> &sorted = s.sorted;
    if (static_cast<int>(s.ring.size()) < cfg_.window) {
        s.ring.push_back(latency_ms);
    } else {
        double &slot =
            s.ring[static_cast<std::size_t>(s.count % cfg_.window)];
        sorted.erase(
            std::lower_bound(sorted.begin(), sorted.end(), slot));
        slot = latency_ms;
    }
    sorted.insert(
        std::upper_bound(sorted.begin(), sorted.end(), latency_ms),
        latency_ms);
    s.count++;
    if (s.count < cfg_.min_samples)
        return std::nullopt;

    // Compare this device against every other device serving the
    // same model (device index order keeps the scan deterministic).
    double my_median = medianOf(s);
    double my_score = scores_[static_cast<std::size_t>(device)];
    for (int other = 0;
         other < static_cast<int>(names_.size()); other++) {
        if (other == device)
            continue;
        auto it = series_.find({model, other});
        if (it == series_.end() ||
            it->second.count < cfg_.min_samples)
            continue;
        double other_median = medianOf(it->second);
        double other_score =
            scores_[static_cast<std::size_t>(other)];

        // Expected-faster device = higher capability score. An
        // inversion: its median exceeds the weaker device's by more
        // than the margin.
        int strong = my_score > other_score ? device : other;
        int weak = strong == device ? other : device;
        double strong_median =
            strong == device ? my_median : other_median;
        double weak_median =
            strong == device ? other_median : my_median;
        if (scores_[static_cast<std::size_t>(strong)] ==
            scores_[static_cast<std::size_t>(weak)])
            continue; // no expected ordering to invert
        if (strong_median <=
            weak_median * (1.0 + cfg_.margin_pct / 100.0))
            continue;

        auto key = std::make_pair(model,
                                  std::make_pair(weak, strong));
        if (flagged_[key])
            continue;
        flagged_[key] = true;

        AnomalyFinding f;
        f.t_s = t_s;
        f.model = model;
        f.fast_device = weak;
        f.slow_device = strong;
        f.fast_device_name =
            names_[static_cast<std::size_t>(weak)];
        f.slow_device_name =
            names_[static_cast<std::size_t>(strong)];
        f.fast_median_ms = weak_median;
        f.slow_median_ms = strong_median;
        f.margin_pct =
            (strong_median / weak_median - 1.0) * 100.0;
        findings_.push_back(f);
        return f;
    }
    return std::nullopt;
}

} // namespace edgert::watch

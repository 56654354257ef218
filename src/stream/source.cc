#include "stream/source.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgert::stream {

FrameArrival
parseFrameArrival(const std::string &s)
{
    if (s == "fixed" || s == "fixed_fps")
        return FrameArrival::kFixedFps;
    if (s == "jitter" || s == "jittered_camera")
        return FrameArrival::kJitteredCamera;
    fatal("unknown frame arrival '", s, "' (expected fixed|jitter)");
}

std::string
frameArrivalName(FrameArrival kind)
{
    switch (kind) {
      case FrameArrival::kFixedFps: return "fixed";
      case FrameArrival::kJitteredCamera: return "jitter";
    }
    return "unknown";
}

std::vector<double>
generateFrameTimes(const FrameSourceConfig &cfg, double duration_s,
                   Rng &rng)
{
    if (!(cfg.fps > 0.0) || !std::isfinite(cfg.fps))
        fatal("frame source fps must be positive and finite (got ",
              cfg.fps, ")");
    const double gap = 1.0 / cfg.fps;
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(
        std::max(0.0, duration_s * cfg.fps) + 1.0));
    double t = rng.uniform(0.0, gap); // phase
    while (t < duration_s) {
        times.push_back(t);
        double step = gap;
        if (cfg.kind == FrameArrival::kJitteredCamera)
            step = gap *
                   std::max(0.2, 1.0 + rng.gaussian(
                                           0.0, cfg.jitter_pct /
                                                    100.0));
        t += step;
    }
    return times;
}

} // namespace edgert::stream

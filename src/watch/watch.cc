#include "watch/watch.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace edgert::watch {

namespace {

/** Zero-padded incident sequence number ("000", "001", ...). */
std::string
incidentSeq(std::size_t n)
{
    std::string s = std::to_string(n);
    while (s.size() < 3)
        s.insert(s.begin(), '0');
    return s;
}

void
writeFlightEvent(JsonWriter &w, const FlightEvent &e)
{
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("t_s", e.t_s);
    w.field("kind", flightEventKindName(e.kind));
    w.field("model", e.model);
    w.field("id", e.id);
    w.field("batch", e.batch);
    w.field("device", e.device);
    w.field("detail", e.detail);
    w.endObject();
}

void
writeAlert(JsonWriter &w, const Alert &a)
{
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("t_s", a.t_s);
    w.field("model", a.model);
    w.field("tier", alertTierName(a.tier));
    w.field("fast_burn", a.burn.fast);
    w.field("mid_burn", a.burn.mid);
    w.field("slow_burn", a.burn.slow);
    w.field("window_total", a.window_total);
    w.endObject();
}

void
writeAnomaly(JsonWriter &w, const AnomalyFinding &f)
{
    w.beginObject(JsonWriter::Layout::Inline);
    w.field("t_s", f.t_s);
    w.field("model", f.model);
    w.field("fast_device", f.fast_device);
    w.field("fast_device_name", f.fast_device_name);
    w.field("slow_device", f.slow_device);
    w.field("slow_device_name", f.slow_device_name);
    w.field("fast_median_ms", f.fast_median_ms);
    w.field("slow_median_ms", f.slow_median_ms);
    w.field("margin_pct", f.margin_pct);
    w.endObject();
}

} // namespace

void
StageSums::add(const RequestTrace &rt)
{
    n++;
    queue += rt.queueMs();
    dispatch_wait += rt.dispatchWaitMs();
    upload += rt.uploadMs();
    compute += rt.computeMs();
    download += rt.downloadMs();
    total += rt.totalMs();
}

StageSums
StageSums::mean() const
{
    StageSums m;
    if (n == 0)
        return m;
    const auto d = static_cast<double>(n);
    m.n = n;
    m.queue = queue / d;
    m.dispatch_wait = dispatch_wait / d;
    m.upload = upload / d;
    m.compute = compute / d;
    m.download = download / d;
    m.total = total / d;
    return m;
}

void
StageSums::writeFields(JsonWriter &w) const
{
    w.field("queue", queue);
    w.field("dispatch_wait", dispatch_wait);
    w.field("upload", upload);
    w.field("compute", compute);
    w.field("download", download);
    w.field("total", total);
}

EdgeWatch::EdgeWatch(const WatchConfig &cfg,
                     std::vector<std::string> models,
                     std::vector<double> model_slo_ms,
                     std::vector<std::string> device_names,
                     std::vector<double> device_scores)
    : cfg_(cfg),
      models_(std::move(models)),
      slo_ms_(std::move(model_slo_ms)),
      device_names_(device_names),
      trackers_(cfg.slo_objective_pct),
      recorder_(cfg.flight_recorder_depth),
      anomaly_(AnomalyDetector::Config{}, std::move(device_names),
               std::move(device_scores)),
      stages_(models_.size())
{
    if (models_.size() != slo_ms_.size())
        fatal("EdgeWatch: ", models_.size(), " models vs ",
              slo_ms_.size(), " SLOs");
    for (const std::string &m : models_)
        trackers_.addLane(m);
    summary_.enabled = true;
}

const std::string &
EdgeWatch::modelName(int model) const
{
    if (model < 0 || model >= static_cast<int>(models_.size()))
        fatal("EdgeWatch: model index ", model, " out of range");
    return models_[static_cast<std::size_t>(model)];
}

void
EdgeWatch::onAdmit(double t_s, int model, std::int64_t id)
{
    summary_.admitted++;
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kAdmit;
    e.model = modelName(model);
    e.id = id;
    recorder_.record(e);
}

void
EdgeWatch::onShed(double t_s, int model, std::int64_t id)
{
    summary_.shed++;
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kShed;
    e.model = modelName(model);
    e.id = id;
    recorder_.record(e);
    // A shed consumed error budget: the request got no service.
    handleAlert(trackers_.observe(model, t_s, true));
}

void
EdgeWatch::onDispatch(double t_s, int model, int batch, int device,
                      std::int64_t first_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kDispatch;
    e.model = modelName(model);
    e.id = first_id;
    e.batch = batch;
    e.device = device;
    recorder_.record(e);
}

void
EdgeWatch::onComplete(const RequestTrace &rt)
{
    summary_.completed++;
    const std::string &name = modelName(rt.model);
    bool bad =
        rt.totalMs() > slo_ms_[static_cast<std::size_t>(rt.model)];

    FlightEvent e;
    e.t_s = rt.done_s;
    e.kind = FlightEvent::kComplete;
    e.model = name;
    e.id = rt.id;
    e.batch = rt.batch;
    e.device = rt.device;
    if (bad)
        e.detail = "slo_miss";
    recorder_.record(e);

    stages_[static_cast<std::size_t>(rt.model)].add(rt);

    // Slow-request reservoir: worst kSlowTraceCount by total
    // latency, slowest first, ties to the lower request id.
    auto &slow = summary_.slow_requests;
    auto slower = [](const RequestTrace &a, const RequestTrace &b) {
        if (a.totalMs() != b.totalMs())
            return a.totalMs() > b.totalMs();
        return a.id < b.id;
    };
    auto pos =
        std::lower_bound(slow.begin(), slow.end(), rt, slower);
    if (pos != slow.end() ||
        static_cast<int>(slow.size()) < kSlowTraceCount)
        slow.insert(pos, rt);
    if (static_cast<int>(slow.size()) > kSlowTraceCount)
        slow.pop_back();

    handleAlert(trackers_.observe(rt.model, rt.done_s, bad));

    auto finding =
        anomaly_.observe(rt.done_s, name, rt.device, rt.totalMs());
    if (finding) {
        summary_.anomalies++;
        summary_.anomaly_findings.push_back(*finding);
        obs::MetricRegistry::global()
            .counter("watch.anomaly.flagged", {{"model", name}})
            .add();
        FlightEvent fe;
        fe.t_s = finding->t_s;
        fe.kind = FlightEvent::kAnomaly;
        fe.model = name;
        fe.device = finding->slow_device;
        fe.detail = finding->slow_device_name + " slower than " +
                    finding->fast_device_name;
        recorder_.record(fe);
    }
}

void
EdgeWatch::onSwapBegin(double t_s, int model,
                       std::uint64_t build_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapBegin;
    e.model = modelName(model);
    e.detail = "build " + std::to_string(build_id);
    recorder_.record(e);
}

void
EdgeWatch::onSwapCommit(double t_s, int model,
                        std::uint64_t build_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapCommit;
    e.model = modelName(model);
    e.detail = "build " + std::to_string(build_id);
    recorder_.record(e);
}

void
EdgeWatch::onSwapRollback(double t_s, int model,
                          const std::string &reason)
{
    const std::string &name = modelName(model);
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapRollback;
    e.model = name;
    e.detail = reason;
    recorder_.record(e);
    dumpIncident(t_s, "swap_rollback", name, reason);
}

void
EdgeWatch::handleAlert(const Alert &a)
{
    if (a.t_s < 0.0)
        return; // no tier transition
    summary_.alerts.push_back(a);
    obs::MetricRegistry::global()
        .counter("watch.alert.fired",
                 {{"model", a.model},
                  {"tier", alertTierName(a.tier)}})
        .add();

    FlightEvent e;
    e.t_s = a.t_s;
    e.kind = FlightEvent::kAlert;
    e.model = a.model;
    e.detail = alertTierName(a.tier);
    recorder_.record(e);

    if (a.tier == Alert::kPage) {
        std::ostringstream detail;
        detail << "burn fast " << jsonNumber(a.burn.fast)
               << " mid " << jsonNumber(a.burn.mid) << " slow "
               << jsonNumber(a.burn.slow);
        dumpIncident(a.t_s, "page_alert", a.model, detail.str());
        warn("EdgeWatch: page alert for '", a.model,
             "' at t=", a.t_s, " s (fast burn ", a.burn.fast,
             ", mid burn ", a.burn.mid, ")");
    }
}

void
EdgeWatch::dumpIncident(double t_s, const std::string &reason,
                        const std::string &model,
                        const std::string &detail)
{
    if (static_cast<int>(incidents_.size()) >= cfg_.max_incidents) {
        summary_.incidents++; // counted, not dumped
        return;
    }
    JsonWriter w;
    w.beginObject();
    w.field("incident", incidents_.size());
    w.field("reason", reason);
    w.field("t_s", t_s);
    w.field("model", model);
    w.field("detail", detail);
    w.key("recorder").beginObject(JsonWriter::Layout::Inline);
    w.field("depth", recorder_.depth());
    w.field("recorded", recorder_.totalRecorded());
    w.endObject();
    w.key("events").beginArray();
    for (const FlightEvent &e : recorder_.snapshot())
        writeFlightEvent(w, e);
    w.endArray();
    w.endObject();

    std::string fname = incidentSeq(incidents_.size()) + "-" +
                        reason + ".json";
    incidents_.emplace_back(fname, w.str() + "\n");
    summary_.incidents++;
    if (!cfg_.incident_prefix.empty()) {
        std::string path = cfg_.incident_prefix + fname;
        std::ofstream f(path);
        if (!f)
            fatal("EdgeWatch: cannot write incident '", path, "'");
        f << incidents_.back().second;
    }
}

void
EdgeWatch::finish()
{
    for (std::size_t m = 0; m < models_.size(); m++) {
        ModelWatchStats ms;
        ms.model = models_[m];
        // A model never observed keeps tier none, zero burn.
        if (const SloTracker *tr =
                trackers_.find(static_cast<int>(m))) {
            ms.tier = tr->tier();
            ms.burn = tr->burnRates();
            ms.observed = tr->total();
            ms.bad = tr->bad();
        }
        ms.stage_mean_ms = stages_[m].mean();
        summary_.models.push_back(std::move(ms));
    }
    summary_.alert_counts = trackers_.rollup();
    finished_ = true;
}

std::string
EdgeWatch::reportJson() const
{
    using Layout = JsonWriter::Layout;
    if (!finished_)
        fatal("EdgeWatch::reportJson before finish()");
    JsonWriter w;
    w.beginObject();
    w.key("config").beginObject(Layout::Inline);
    w.field("slo_objective_pct", cfg_.slo_objective_pct);
    w.field("page_burn", SloTracker::kPageBurn);
    w.field("warn_burn", SloTracker::kWarnBurn);
    w.field("fast_window_s", SloTracker::kFastWindowS);
    w.field("mid_window_s", SloTracker::kMidWindowS);
    w.field("slow_window_s", SloTracker::kSlowWindowS);
    w.field("flight_recorder_depth", cfg_.flight_recorder_depth);
    w.endObject();
    w.key("totals").beginObject(Layout::Inline);
    w.field("admitted", summary_.admitted);
    w.field("shed", summary_.shed);
    w.field("completed", summary_.completed);
    w.field("page_alerts", summary_.alert_counts.pages);
    w.field("warn_alerts", summary_.alert_counts.warns);
    w.field("clear_alerts", summary_.alert_counts.clears);
    w.field("anomalies", summary_.anomalies);
    w.field("incidents", summary_.incidents);
    w.field("first_page_s", summary_.alert_counts.first_page_s);
    w.endObject();

    w.key("models").beginArray();
    for (const ModelWatchStats &m : summary_.models) {
        w.beginObject(Layout::Inline);
        w.field("model", m.model);
        w.field("tier", alertTierName(m.tier));
        w.field("fast_burn", m.burn.fast);
        w.field("mid_burn", m.burn.mid);
        w.field("slow_burn", m.burn.slow);
        w.field("observed", m.observed);
        w.field("bad", m.bad);
        w.key("stage_mean_ms").beginObject();
        m.stage_mean_ms.writeFields(w);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("alerts").beginArray();
    for (const Alert &a : summary_.alerts)
        writeAlert(w, a);
    w.endArray();

    w.key("anomalies").beginArray();
    for (const AnomalyFinding &f : summary_.anomaly_findings)
        writeAnomaly(w, f);
    w.endArray();

    w.key("slow_requests").beginArray();
    for (const RequestTrace &r : summary_.slow_requests) {
        w.beginObject(Layout::Inline);
        w.field("id", r.id);
        w.field("model", modelName(r.model));
        w.field("device", r.device);
        w.field("batch", r.batch);
        w.field("arrival_s", r.arrival_s);
        w.field("queue_ms", r.queueMs());
        w.field("dispatch_wait_ms", r.dispatchWaitMs());
        w.field("upload_ms", r.uploadMs());
        w.field("compute_ms", r.computeMs());
        w.field("download_ms", r.downloadMs());
        w.field("total_ms", r.totalMs());
        w.endObject();
    }
    w.endArray();

    w.key("recorder").beginObject(Layout::Inline);
    w.field("depth", recorder_.depth());
    w.field("recorded", recorder_.totalRecorded());
    w.key("incident_files").beginArray();
    for (const auto &incident : incidents_)
        w.value(incident.first);
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

void
EdgeWatch::writeFiles() const
{
    if (!cfg_.out_path.empty()) {
        std::ofstream f(cfg_.out_path);
        if (!f)
            fatal("EdgeWatch: cannot write report '", cfg_.out_path,
                  "'");
        f << reportJson();
    }
    // Incident files were written as they were dumped.
}

} // namespace edgert::watch

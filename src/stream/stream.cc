#include "stream/stream.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/sort.hh"
#include "core/timing_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batcher.hh"
#include "serve/cli.hh"
#include "serve/scheduler.hh"

namespace edgert::stream {

namespace {

using serve::Event;

/** One frame's whole lifecycle (the stream analogue of Request). Its
 *  dispatch's facts live in the plan (instance, plan) names. */
struct FrameRec
{
    enum Outcome { kInFlight, kDropped, kCompleted };

    std::int64_t id = -1;
    int model = 0;
    int stream = 0;
    double capture_s = 0.0;

    // Drawn at generation time (after the decode and preprocess
    // durations) so the draw order never depends on scheduling.
    double postprocess_dur_s = 0.0;

    double decode_done_s = 0.0;
    double ready_s = 0.0; //!< preprocess done; queue admission time
    double drop_s = 0.0;
    double done_s = 0.0;      //!< device output download finished
    double post_done_s = 0.0; //!< host postprocess finished

    Outcome outcome = kInFlight;
    int instance = -1; //!< -1 = never dispatched
    std::uint32_t plan = 0;

    double ageMs() const
    {
        return (post_done_s - capture_s) * 1e3;
    }
};
static_assert(sizeof(FrameRec) <= 88,
              "a frame holds no copy of its dispatch");

/** Per-stage sums over one model's completed frames, ms. */
struct FrameStageSums
{
    watch::StageSums infer; //!< RequestTrace's breakdown of infer
    double decode = 0.0, preprocess = 0.0, postprocess = 0.0;

    void add(const FrameRec &fr,
             const std::vector<serve::Instance> &instances)
    {
        infer.add(serve::requestTrace(instances, fr, fr.ready_s));
        decode += (fr.decode_done_s - fr.capture_s) * 1e3;
        preprocess += (fr.ready_s - fr.decode_done_s) * 1e3;
        postprocess += (fr.post_done_s - fr.done_s) * 1e3;
    }
};

/** Stage-duration jitter: base * max(0.1, 1 + N(0, pct/100)). */
double
jitteredSeconds(double base_ms, double jitter_pct, Rng &rng)
{
    double scale =
        std::max(0.1, 1.0 + rng.gaussian(0.0, jitter_pct / 100.0));
    return base_ms * 1e-3 * scale;
}

/** Canonical freshness report (cfg.freshness_out). */
void
writeFreshnessFile(const std::string &path,
                   const watch::SloTrackerSet &slo)
{
    std::ofstream f(path);
    if (!f)
        fatal("EdgeStream: cannot write '", path, "'");
    JsonWriter w;
    w.beginObject();
    w.key("lanes").beginArray();
    for (int lane : slo.observedByName()) {
        const watch::SloTracker *t = slo.find(lane);
        watch::BurnRates b = t->burnRates();
        w.beginObject(JsonWriter::Layout::Inline);
        w.field("key", t->model());
        w.field("tier", watch::alertTierName(t->tier()));
        w.field("burn_fast", b.fast);
        w.field("burn_mid", b.mid);
        w.field("burn_slow", b.slow);
        w.field("observed", t->total());
        w.field("bad", t->bad());
        w.endObject();
    }
    w.endArray();
    w.key("rollup").beginObject(JsonWriter::Layout::Inline);
    slo.rollup().writeFields(w);
    w.endObject();
    w.endObject();
    f << w.str() << "\n";
}

/** One EdgeStream run (startStreams). */
class Streams final : public serve::FrontEnd<StreamReport>
{
  public:
    explicit Streams(const StreamConfig &cfg)
        : FrontEnd("stream", "frames", static_cast<int>(cfg.models.size()),
                   cfg.devices, cfg.ram_fraction),
          cfg_(cfg), slo_(cfg.freshness_objective_pct),
          stage_sums_(cfg.models.size())
    {
        serve::validateModels("EdgeStream", cfg.models, cfg.duration_s);
        if (cfg.devices.empty())
            fatal("EdgeStream needs at least one device");
        for (const auto &m : cfg.models) {
            if (m.streams < 1)
                fatal("model '", m.model, "' needs at least one stream");
            if (!(m.fps > 0.0) || !std::isfinite(m.fps))
                fatal("model '", m.model, "' fps must be positive and "
                      "finite (got ", m.fps, ")");
            if (!(m.stale_ms > 0.0))
                fatal("model '", m.model, "' stale_ms must be positive "
                      "(got ", m.stale_ms, ")");
            for (double ms : {m.stages.decode_ms, m.stages.preprocess_ms,
                              m.stages.postprocess_ms})
                if (!(ms >= 0.0) || !std::isfinite(ms))
                    fatal("model '", m.model, "' stage times must be "
                          "non-negative and finite (got ", ms, " ms)");
        }

        // ------------------------------------------------------------
        // Build: one calibrated engine ladder per (model, device) with a
        // shared timing cache. No fault injection here — stream serving
        // reuses serve's engine machinery, not its resilience
        // experiments.
        // ------------------------------------------------------------
        {
            EDGERT_SPAN("stream_build",
                        {{"models", std::to_string(n_models_)},
                         {"devices", std::to_string(cfg.devices.size())}});
            core::TimingCache timing_cache;
            for (int m = 0; m < n_models_; m++) {
                const auto &mc = cfg.models[static_cast<std::size_t>(m)];
                versions_[static_cast<std::size_t>(m)].push_back(
                    serve::buildVersion(
                        {mc.model, mc.precision, mc.calibration_seed,
                         cfg.build_id, mc.batching.max_batch},
                        cfg.devices, nullptr,
                        [&](std::size_t) { return &timing_cache; }));
            }
        }

        // ------------------------------------------------------------
        // Placement: RAM-bounded instances per device, capped by the
        // paper's Eq. 1 concurrency bound.
        // ------------------------------------------------------------
        for (int m = 0; m < n_models_; m++) {
            const auto &mc = cfg.models[static_cast<std::size_t>(m)];
            serve::placeOnDevices(pool_, m,
                                  versions_[static_cast<std::size_t>(m)][0],
                                  mc.instances_per_device);
            if (pool_.instancesOf(m).empty())
                warn("EdgeStream: model '", mc.model,
                     "' has no usable instances (no RAM budget fits); "
                     "its frames will only age out");
        }

        generateFrames();

        // ------------------------------------------------------------
        // Phase 1 setup: ready frames enter the per-model StreamQueue
        // under the backpressure policy; the batcher cuts across streams
        // onto predicted-free instances. Work stops at duration_s:
        // later-ready frames and queue leftovers are in_flight.
        // ------------------------------------------------------------
        for (const auto &mc : cfg.models)
            queues_.emplace_back(mc.streams);
        setQueues(cfg.models, queues_.size());

        // Arrivals sort by (ready, id). Listed in id (capture) order they
        // are nearly sorted already: ready trails capture by a few ms of
        // host stages, unless a camera's decoder falls behind.
        std::vector<serve::EventQueue::Arrival> ready;
        ready.reserve(frames_.size());
        for (const FrameRec &fr : frames_)
            if (fr.ready_s <= cfg.duration_s) // else: still decoding
                ready.push_back({fr.ready_s, fr.id});
        sortNearlySorted(ready.begin(), ready.end());
        events_ = serve::EventQueue(std::move(ready));
    }

    StreamReport finish() override
    {
        // ------------------------------------------------------------
        // Phase 2 — execution replay: each dispatch releases on its
        // instance's *upload* stream at the planned time; waitEvent
        // chains upload → compute → download so consecutive frames
        // overlap stage-wise. One run() per device.
        // ------------------------------------------------------------
        serve::ReplayOptions ro = tracedReplay(cfg_);
        ro.pipelined = true;
        const serve::Replay replayed = replay(ro);

        // Fold measured completions back into the frame table (instance
        // order, then plan order — deterministic).
        std::vector<obs::Histogram> batch_size =
            serve::modelHistograms("stream.batch.size", cfg_.models);
        const serve::FoldCounts folded = fold(
            frames_, FrameRec::kCompleted,
            [&](const serve::Instance &inst, const serve::PlannedDispatch &pd) {
                batch_size[static_cast<std::size_t>(inst.model)].record(
                    pd.batch);
            });
        feedFreshness();
        StreamReport out = report(replayed, folded);
        if (!cfg_.trace_out.empty())
            serve::saveReplayTrace(cfg_.trace_out, cfg_.devices, replayed, {},
                                   "stream");
        return out;
    }

  private:
    // Phase 1 — the control loop over (frame-ready, batch-timeout,
    // predicted-free) events.
    void onEvent(const Event &e) override
    {
        if (e.t > cfg_.duration_s)
            return; // the camera window is over
        switch (e.kind) {
          case Event::kArrival: {
              FrameRec &fr = frames_[static_cast<std::size_t>(e.req)];
              const int m = fr.model;
              const auto &mc = cfg_.models[static_cast<std::size_t>(m)];
              evicted_.clear();
              queues_[static_cast<std::size_t>(m)].push(
                  fr.id, fr.stream, e.t, mc.policy, mc.frame_budget, evicted_);
              for (std::int64_t id : evicted_) {
                  FrameRec &old = frames_[static_cast<std::size_t>(id)];
                  old.outcome = FrameRec::kDropped;
                  old.drop_s = e.t;
              }
              tryDispatch(m, e.t);
              return;
          }
          case Event::kTimeout:
          case Event::kPredFree:
              tryDispatch(eventModel(e), e.t);
              return;
          default: // serve / fleet kinds: never pushed here
              return;
        }
    }

    std::size_t units() const override { return frames_.size(); }

    // ------------------------------------------------------------
    // Frame generation, camera by camera in (model, stream) order:
    // capture times and per-frame stage durations come from forked Rng
    // lineages (root → frames/stages → model → stream), and the host
    // decode/preprocess chains fold eagerly — one decoder per camera, so
    // stage k of frame i+1 waits for stage k of frame i, and host stages
    // never see device feedback. Frame ids follow (capture, model,
    // stream, seq); the camera-major index ranks like (model, stream,
    // seq), so one sort of (capture, index) keys numbers every frame and
    // each record is written into its id slot.
    // ------------------------------------------------------------
    void generateFrames()
    {
        using TimedId = serve::EventQueue::Arrival; //!< (t, id) order
        const obs::ScopedSpan phase = modelSpan("workload");
        Rng root(cfg_.seed);
        Rng frames_rng = root.fork("frames");
        Rng stages_rng = root.fork("stages");
        std::vector<TimedId> keys;
        for (int m = 0; m < n_models_; m++) {
            const auto &mc = cfg_.models[static_cast<std::size_t>(m)];
            Rng model_frames = frames_rng.fork(static_cast<std::uint64_t>(m));
            FrameSourceConfig sc;
            sc.kind = mc.arrival;
            sc.fps = mc.fps;
            sc.jitter_pct = mc.arrival_jitter_pct;
            first_lane_.push_back(static_cast<int>(slo_.lanes()));
            for (int s = 0; s < mc.streams; s++) {
                slo_.addLane(mc.model + "/cam" + std::to_string(s));
                Rng cam = model_frames.fork(static_cast<std::uint64_t>(s));
                first_frame_.push_back(keys.size());
                for (double t : generateFrameTimes(sc, cfg_.duration_s, cam))
                    keys.push_back({t, static_cast<std::int64_t>(keys.size())});
            }
        }
        first_frame_.push_back(keys.size());
        std::sort(keys.begin(), keys.end());
        camera_ids_.resize(keys.size());
        for (std::size_t id = 0; id < keys.size(); id++)
            camera_ids_[static_cast<std::size_t>(keys[id].id)] =
                static_cast<std::int64_t>(id);
        frames_.resize(keys.size());
        for (int m = 0; m < n_models_; m++) {
            const auto &mc = cfg_.models[static_cast<std::size_t>(m)];
            Rng model_stages = stages_rng.fork(static_cast<std::uint64_t>(m));
            for (int s = 0; s < mc.streams; s++) {
                Rng stage_rng =
                    model_stages.fork(static_cast<std::uint64_t>(s));
                const auto c = static_cast<std::size_t>(
                    first_lane_[static_cast<std::size_t>(m)] + s);
                double decode_free = 0.0;
                double pre_free = 0.0;
                for (std::size_t k = first_frame_[c]; k < first_frame_[c + 1];
                     k++) {
                    FrameRec &fr =
                        frames_[static_cast<std::size_t>(camera_ids_[k])];
                    fr.id = camera_ids_[k];
                    fr.model = m;
                    fr.stream = s;
                    fr.capture_s = keys[static_cast<std::size_t>(fr.id)].t;
                    const double decode_s = jitteredSeconds(
                        mc.stages.decode_ms, mc.stages.jitter_pct, stage_rng);
                    const double preprocess_s =
                        jitteredSeconds(mc.stages.preprocess_ms,
                                        mc.stages.jitter_pct, stage_rng);
                    fr.postprocess_dur_s =
                        jitteredSeconds(mc.stages.postprocess_ms,
                                        mc.stages.jitter_pct, stage_rng);
                    double dstart = std::max(fr.capture_s, decode_free);
                    fr.decode_done_s = dstart + decode_s;
                    decode_free = fr.decode_done_s;
                    double pstart = std::max(fr.decode_done_s, pre_free);
                    fr.ready_s = pstart + preprocess_s;
                    pre_free = fr.ready_s;
                }
            }
        }
    }

    void tryDispatch(int m, double t)
    {
        const auto mi = static_cast<std::size_t>(m);
        cut(queues_[mi], &StreamQueue::oldestReadySeconds, m, mi, t,
            [&](double now) { return pool_.freeInstance(m, now); });
    }

    // ------------------------------------------------------------
    // Postprocess and freshness. Per camera: its completions in (done,
    // id) order are its host postprocess chain, and its freshness lane
    // observes them merged with its drops by (t, drop before completion,
    // id). The runs are sorted already: a camera's frames are evicted
    // oldest first at event times, and its chain makes postprocess-done
    // monotone. A dropped frame is bad at its drop time; a completed
    // frame is bad at postprocess-done when its age exceeds the stale
    // budget. Lanes are independent trackers and the rollup keeps the
    // earliest page, so feeding lane by lane equals one time-ordered
    // feed. Within a camera, id order is seq order.
    //
    // Then one frame-id-order pass over terminal outcomes feeds the
    // per-model trackers, the frame-age histograms and the per-stage sums
    // (their floating-point sums follow that order).
    // ------------------------------------------------------------
    void feedFreshness()
    {
        using TimedId = serve::EventQueue::Arrival; //!< (t, id) order
        const obs::ScopedSpan phase = span("freshness");
        {
            std::vector<TimedId> done;
            std::vector<const FrameRec *> drops;
            for (std::size_t c = 0; c + 1 < first_frame_.size(); c++) {
                const int lane = static_cast<int>(c);
                done.clear();
                drops.clear();
                for (std::size_t k = first_frame_[c]; k < first_frame_[c + 1];
                     k++) {
                    const FrameRec &fr =
                        frames_[static_cast<std::size_t>(camera_ids_[k])];
                    if (fr.outcome == FrameRec::kCompleted)
                        done.push_back({fr.done_s, fr.id});
                    else if (fr.outcome == FrameRec::kDropped)
                        drops.push_back(&fr);
                }
                sortNearlySorted(done.begin(), done.end());
                auto drop = drops.begin();
                double post_free = 0.0;
                for (const TimedId &d : done) {
                    FrameRec &fr = frames_[static_cast<std::size_t>(d.id)];
                    const auto &mc =
                        cfg_.models[static_cast<std::size_t>(fr.model)];
                    fr.post_done_s =
                        std::max(fr.done_s, post_free) + fr.postprocess_dur_s;
                    post_free = fr.post_done_s;
                    for (; drop != drops.end() &&
                           (*drop)->drop_s <= fr.post_done_s;
                         ++drop)
                        slo_.observe(lane, (*drop)->drop_s, true);
                    slo_.observe(lane, fr.post_done_s,
                                 fr.ageMs() > mc.stale_ms);
                }
                for (; drop != drops.end(); ++drop)
                    slo_.observe(lane, (*drop)->drop_s, true);
            }
        }

        std::vector<obs::Histogram> age_ms =
            serve::modelHistograms("stream.frame.age_ms", cfg_.models);
        for (const auto &mc : cfg_.models)
            fresh_.emplace_back(mc.streams, mc.stale_ms);
        for (const FrameRec &fr : frames_) {
            auto m = static_cast<std::size_t>(fr.model);
            fresh_[m].onProduced(fr.stream);
            switch (fr.outcome) {
              case FrameRec::kDropped:
                  fresh_[m].onDropped(fr.stream);
                  break;
              case FrameRec::kCompleted: {
                  const double age = fr.ageMs();
                  fresh_[m].onCompleted(fr.stream, age);
                  age_ms[m].record(age);
                  stage_sums_[m].add(fr, pool_.instances());
                  break;
              }
              case FrameRec::kInFlight:
                  fresh_[m].onLeftInFlight(fr.stream);
                  break;
            }
        }
        if (!cfg_.freshness_out.empty())
            writeFreshnessFile(cfg_.freshness_out, slo_);
    }

    // Report assembly (model order, then stream order).
    StreamReport report(const serve::Replay &replayed,
                        const serve::FoldCounts &folded)
    {
        const obs::ScopedSpan phase = modelSpan("report");
        StreamReport out;
        out.seed = cfg_.seed;
        out.duration_s = cfg_.duration_s;
        out.freshness = slo_.rollup();
        for (int m = 0; m < n_models_; m++) {
            auto mi = static_cast<std::size_t>(m);
            const auto &mc = cfg_.models[mi];
            StreamModelStats s;
            s.model = mc.model;
            s.precision = nn::precisionName(mc.precision);
            s.policy = backpressurePolicyName(mc.policy);
            s.arrival = frameArrivalName(mc.arrival);
            s.streams = mc.streams;
            s.fps = mc.fps;
            s.stale_ms = mc.stale_ms;
            s.instances = static_cast<int>(pool_.instancesOf(m).size());
            s.freshness = fresh_[mi].totalStats();
            s.conserved = fresh_[mi].conserved();
            s.batches = folded.batches[mi];
            s.mean_batch = folded.meanBatch(mi);
            const obs::Labels ml = {{"model", mc.model}};
            for (const auto &[name, n] :
                 {std::pair{"stream.frame.produced", s.freshness.produced},
                  {"stream.frame.dropped", s.freshness.dropped},
                  {"stream.frame.completed", s.freshness.completed},
                  {"stream.frame.stale", s.freshness.stale_completed},
                  {"stream.batch.dispatched", s.batches}})
                obs::MetricRegistry::global().counter(name, ml).add(n);
            const FrameStageSums &st = stage_sums_[mi];
            s.infer_mean_ms = st.infer.mean();
            if (st.infer.n > 0) {
                auto dn = static_cast<double>(st.infer.n);
                s.decode_mean_ms = st.decode / dn;
                s.preprocess_mean_ms = st.preprocess / dn;
                s.postprocess_mean_ms = st.postprocess / dn;
            }
            for (int c = 0; c < mc.streams; c++) {
                StreamLaneStats lane;
                lane.stream = c;
                lane.freshness = fresh_[mi].streamStats(c);
                if (const watch::SloTracker *t = slo_.find(first_lane_[mi] + c))
                    lane.tier = t->tier();
                s.lanes.push_back(std::move(lane));
            }
            out.models.push_back(std::move(s));
        }
        out.devices = serve::deviceStats(pool_, replayed, "stream");
        return out;
    }

    const StreamConfig &cfg_;
    std::vector<FrameRec> frames_; //!< by frame id
    /** Camera c is SLO lane c; its frame `seq` has id
     *  camera_ids_[first_frame_[c] + seq]. */
    std::vector<std::int64_t> camera_ids_;
    std::vector<std::size_t> first_frame_;
    std::vector<int> first_lane_; //!< per model
    watch::SloTrackerSet slo_;
    std::vector<StreamQueue> queues_;
    std::vector<std::int64_t> evicted_; //!< one push's, reused
    std::vector<FreshnessTracker> fresh_;
    std::vector<FrameStageSums> stage_sums_;
};

} // namespace

std::unique_ptr<serve::FrontEnd<StreamReport>>
startStreams(const StreamConfig &cfg)
{
    return std::make_unique<Streams>(cfg);
}

StreamReport
runStreams(const StreamConfig &cfg)
{
    const auto streams = startStreams(cfg);
    streams->controlUntil(std::numeric_limits<double>::infinity());
    return streams->finish();
}

std::string
StreamReport::toJson() const
{
    using Layout = JsonWriter::Layout;
    JsonWriter w;
    w.beginObject();
    w.field("seed", seed);
    w.field("duration_s", duration_s);
    w.key("models").beginArray();
    for (const StreamModelStats &s : models) {
        w.beginObject();
        w.field("model", s.model);
        w.field("precision", s.precision);
        w.field("policy", s.policy);
        w.field("arrival", s.arrival);
        w.field("streams", s.streams);
        w.field("fps", s.fps);
        w.field("stale_ms", s.stale_ms);
        w.field("instances", s.instances);
        w.field("produced", s.freshness.produced);
        w.field("completed", s.freshness.completed);
        w.field("dropped", s.freshness.dropped);
        w.field("in_flight", s.freshness.in_flight);
        w.field("stale_completed", s.freshness.stale_completed);
        w.field("stale_rate_pct", s.freshness.stale_rate_pct);
        w.field("conserved", s.conserved);
        w.field("batches", s.batches);
        w.field("mean_batch", s.mean_batch);
        serve::LatencySummary{s.freshness.age_mean_ms,
                              s.freshness.age_p50_ms,
                              s.freshness.age_p95_ms,
                              s.freshness.age_p99_ms,
                              s.freshness.age_max_ms}
            .writeJson(w, "age_ms");
        w.key("stage_mean_ms").beginObject(Layout::Inline);
        w.field("decode", s.decode_mean_ms);
        w.field("preprocess", s.preprocess_mean_ms);
        w.field("queue", s.infer_mean_ms.queue);
        w.field("dispatch_wait", s.infer_mean_ms.dispatch_wait);
        w.field("upload", s.infer_mean_ms.upload);
        w.field("compute", s.infer_mean_ms.compute);
        w.field("download", s.infer_mean_ms.download);
        w.field("postprocess", s.postprocess_mean_ms);
        w.endObject();
        w.key("lanes").beginArray();
        for (const StreamLaneStats &lane : s.lanes) {
            w.beginObject(Layout::Inline);
            w.field("stream", lane.stream);
            w.field("produced", lane.freshness.produced);
            w.field("completed", lane.freshness.completed);
            w.field("dropped", lane.freshness.dropped);
            w.field("in_flight", lane.freshness.in_flight);
            w.field("stale_rate_pct", lane.freshness.stale_rate_pct);
            w.field("age_p99_ms", lane.freshness.age_p99_ms);
            w.field("tier", watch::alertTierName(lane.tier));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    serve::writeDevicesJson(w, devices);
    w.key("freshness").beginObject(Layout::Inline);
    freshness.writeFields(w);
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

StreamModelConfig
parseModelSpec(const std::string &spec,
               const StreamModelConfig &defaults)
{
    StreamModelConfig mc = defaults;
    mc.model = serve::splitModelSpec(
        spec, mc.precision,
        [&](const std::string &k, const std::string &v) {
            if (serve::applyEngineKey(k, v, mc.batching,
                                      mc.instances_per_device,
                                      mc.calibration_seed))
                return true;
            if (k == "streams")
                mc.streams = optionInt(k, v);
            else if (k == "fps")
                mc.fps = optionNumber(k, v);
            else if (k == "policy")
                mc.policy = parseBackpressurePolicy(v);
            else if (k == "budget")
                mc.frame_budget = optionInt(k, v);
            else if (k == "stale_ms")
                mc.stale_ms = optionNumber(k, v);
            else if (k == "arrival")
                mc.arrival = parseFrameArrival(v);
            else if (k == "jitter_pct")
                mc.arrival_jitter_pct = optionNumber(k, v);
            else if (k == "decode_ms")
                mc.stages.decode_ms = optionNumber(k, v);
            else if (k == "preprocess_ms")
                mc.stages.preprocess_ms = optionNumber(k, v);
            else if (k == "postprocess_ms")
                mc.stages.postprocess_ms = optionNumber(k, v);
            else if (k == "stage_jitter_pct")
                mc.stages.jitter_pct = optionNumber(k, v);
            else
                return false;
            return true;
        });
    return mc;
}

} // namespace edgert::stream

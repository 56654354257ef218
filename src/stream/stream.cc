#include "stream/stream.hh"

#include <algorithm>
#include <fstream>
#include <tuple>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/timing_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batcher.hh"
#include "serve/cli.hh"
#include "serve/scheduler.hh"

namespace edgert::stream {

namespace {

using serve::Event;

/** One frame's whole lifecycle (the stream analogue of Request). */
struct FrameRec
{
    enum Outcome { kInFlight, kDropped, kCompleted };

    std::int64_t id = -1;
    int model = 0;
    int stream = 0;
    std::int64_t seq = 0; //!< per-stream capture index
    double capture_s = 0.0;

    // Per-frame stage durations, drawn at generation time so the
    // draw order never depends on scheduling.
    double decode_dur_s = 0.0;
    double preprocess_dur_s = 0.0;
    double postprocess_dur_s = 0.0;

    double decode_done_s = 0.0;
    double ready_s = 0.0; //!< preprocess done; queue admission time

    Outcome outcome = kInFlight;
    double drop_s = 0.0;

    double dispatch_s = 0.0;
    double begin_s = 0.0;
    double upload_done_s = 0.0;
    double compute_done_s = 0.0;
    double done_s = 0.0;      //!< device output download finished
    double post_done_s = 0.0; //!< host postprocess finished

    double ageMs() const
    {
        return (post_done_s - capture_s) * 1e3;
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

/** Canonical freshness watch report (cfg.watch.out_path). */
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

} // namespace

StreamReport
runStreams(const StreamConfig &cfg)
{
    serve::validateModels("EdgeStream", cfg.models, cfg.duration_s);
    if (cfg.devices.empty())
        fatal("EdgeStream needs at least one device");
    for (const auto &m : cfg.models)
        if (m.streams < 1)
            fatal("model '", m.model, "' needs at least one stream");

    const int n_models = static_cast<int>(cfg.models.size());
    const int n_devices = static_cast<int>(cfg.devices.size());

    // ------------------------------------------------------------
    // Build: one calibrated engine ladder per (model, device) with a
    // shared timing cache. No fault injection here — stream serving
    // reuses serve's engine machinery, not its resilience
    // experiments.
    // ------------------------------------------------------------
    core::TimingCache timing_cache;
    serve::ModelVersions versions(static_cast<std::size_t>(n_models));
    {
        EDGERT_SPAN("stream_build",
                    {{"models", std::to_string(n_models)},
                     {"devices", std::to_string(n_devices)}});
        for (int m = 0; m < n_models; m++) {
            const auto &mc = cfg.models[static_cast<std::size_t>(m)];
            serve::ModelVersion ver;
            ver.build_id = cfg.build_id;
            for (const auto &spec : cfg.devices)
                ver.sets.push_back(serve::buildLadder(
                    spec,
                    {mc.model, mc.precision, mc.calibration_seed,
                     cfg.build_id, mc.batching.max_batch},
                    &timing_cache));
            versions[static_cast<std::size_t>(m)].push_back(
                std::move(ver));
        }
    }

    // ------------------------------------------------------------
    // Placement: RAM-bounded instances per device, capped by the
    // paper's Eq. 1 concurrency bound.
    // ------------------------------------------------------------
    serve::InstancePool pool(cfg.devices, cfg.ram_fraction);
    for (int m = 0; m < n_models; m++) {
        const auto &mc = cfg.models[static_cast<std::size_t>(m)];
        serve::placeOnDevices(pool, m,
                              versions[static_cast<std::size_t>(m)][0],
                              cfg.devices, mc.instances_per_device);
        if (pool.instancesOf(m).empty())
            warn("EdgeStream: model '", mc.model,
                 "' has no usable instances (no RAM budget fits); "
                 "its frames will only age out");
    }

    // ------------------------------------------------------------
    // Frame generation: capture times and per-frame stage durations
    // from forked Rng lineages (root → frames/stages → model →
    // stream), then the host decode/preprocess chains — one decoder
    // per camera stream, so stage k of frame i+1 waits for stage k
    // of frame i. Host stages never see device feedback, so the
    // chains fold eagerly. The merged table is capture-ordered.
    // ------------------------------------------------------------
    std::vector<FrameRec> frames;
    {
        EDGERT_SPAN("stream_workload",
                    {{"models", std::to_string(n_models)}});
        Rng root(cfg.seed);
        Rng frames_rng = root.fork("frames");
        Rng stages_rng = root.fork("stages");
        for (int m = 0; m < n_models; m++) {
            const auto &mc =
                cfg.models[static_cast<std::size_t>(m)];
            Rng model_frames =
                frames_rng.fork(static_cast<std::uint64_t>(m));
            Rng model_stages =
                stages_rng.fork(static_cast<std::uint64_t>(m));
            FrameSourceConfig sc;
            sc.kind = mc.arrival;
            sc.fps = mc.fps;
            sc.jitter_pct = mc.arrival_jitter_pct;
            for (int s = 0; s < mc.streams; s++) {
                Rng cam = model_frames.fork(
                    static_cast<std::uint64_t>(s));
                Rng stage_rng = model_stages.fork(
                    static_cast<std::uint64_t>(s));
                auto times =
                    generateFrameTimes(sc, cfg.duration_s, cam);
                double decode_free = 0.0;
                double pre_free = 0.0;
                for (std::size_t i = 0; i < times.size(); i++) {
                    FrameRec fr;
                    fr.model = m;
                    fr.stream = s;
                    fr.seq = static_cast<std::int64_t>(i);
                    fr.capture_s = times[i];
                    fr.decode_dur_s = jitteredSeconds(
                        mc.stages.decode_ms,
                        mc.stages.jitter_pct, stage_rng);
                    fr.preprocess_dur_s = jitteredSeconds(
                        mc.stages.preprocess_ms,
                        mc.stages.jitter_pct, stage_rng);
                    fr.postprocess_dur_s = jitteredSeconds(
                        mc.stages.postprocess_ms,
                        mc.stages.jitter_pct, stage_rng);
                    double dstart =
                        std::max(fr.capture_s, decode_free);
                    fr.decode_done_s = dstart + fr.decode_dur_s;
                    decode_free = fr.decode_done_s;
                    double pstart =
                        std::max(fr.decode_done_s, pre_free);
                    fr.ready_s = pstart + fr.preprocess_dur_s;
                    pre_free = fr.ready_s;
                    frames.push_back(fr);
                }
            }
        }
        // (capture, model, stream, seq) is unique per frame, so the
        // order is total.
        std::sort(frames.begin(), frames.end(),
                  [](const FrameRec &a, const FrameRec &b) {
                      return std::tie(a.capture_s, a.model, a.stream,
                                      a.seq) <
                             std::tie(b.capture_s, b.model, b.stream,
                                      b.seq);
                  });
        for (std::size_t i = 0; i < frames.size(); i++)
            frames[i].id = static_cast<std::int64_t>(i);
    }

    // ------------------------------------------------------------
    // Phase 1 — control loop over (frame-ready, batch-timeout,
    // predicted-free) events. Ready frames enter the per-model
    // StreamQueue under the backpressure policy; the batcher cuts
    // across streams onto predicted-free instances. Work stops at
    // duration_s: later-ready frames and queue leftovers are
    // in_flight.
    // ------------------------------------------------------------
    std::vector<StreamQueue> queues;
    std::vector<serve::DynamicBatcher> batchers;
    std::vector<serve::BatchTimeout> timeouts(
        static_cast<std::size_t>(n_models));
    for (int m = 0; m < n_models; m++) {
        const auto &mc = cfg.models[static_cast<std::size_t>(m)];
        queues.emplace_back(mc.streams);
        batchers.emplace_back(mc.batching);
        timeouts[static_cast<std::size_t>(m)].target = m;
    }

    // Ready times are not monotone in frame id (decode and preprocess
    // jitter per stream), so the arrivals sort by (ready, id).
    std::vector<serve::EventQueue::Arrival> ready;
    for (const FrameRec &fr : frames)
        if (fr.ready_s <= cfg.duration_s) // else: still decoding
            ready.push_back({fr.ready_s, fr.id});
    std::sort(ready.begin(), ready.end());
    serve::EventQueue evq(std::move(ready));

    auto tryDispatch = [&](int m, double t) {
        const auto mi = static_cast<std::size_t>(m);
        serve::cutBatches(
            queues[mi], &StreamQueue::oldestReadySeconds, batchers[mi],
            t, versions, pool.instances(), evq, timeouts[mi],
            [&](double now) { return pool.freeInstance(m, now); },
            [&](const serve::PlannedDispatch &pd, int) {
                for (std::int64_t id : pd.request_ids)
                    frames[static_cast<std::size_t>(id)].dispatch_s =
                        pd.t_s;
            });
    };

    {
        EDGERT_SPAN("stream_control",
                    {{"frames", std::to_string(frames.size())}});
        while (!evq.empty()) {
            Event e = evq.pop();
            if (e.t > cfg.duration_s)
                continue; // the camera window is over
            switch (e.kind) {
              case Event::kArrival: {
                  FrameRec &fr =
                      frames[static_cast<std::size_t>(e.req)];
                  const int m = fr.model;
                  const auto &mc =
                      cfg.models[static_cast<std::size_t>(m)];
                  auto evicted =
                      queues[static_cast<std::size_t>(m)].push(
                          fr.id, fr.stream, e.t, mc.policy,
                          mc.frame_budget);
                  for (std::int64_t id : evicted) {
                      FrameRec &old =
                          frames[static_cast<std::size_t>(id)];
                      old.outcome = FrameRec::kDropped;
                      old.drop_s = e.t;
                  }
                  tryDispatch(m, e.t);
                  break;
              }
              case Event::kTimeout:
                  tryDispatch(e.target, e.t);
                  break;
              case Event::kPredFree:
                  tryDispatch(
                      pool.instances()[static_cast<std::size_t>(
                                           e.target)]
                          .model,
                      e.t);
                  break;
              default: // serve / fleet kinds: never pushed here
                  break;
            }
        }
    }

    // ------------------------------------------------------------
    // Phase 2 — execution replay: each dispatch releases on its
    // instance's *upload* stream at the planned time; waitEvent
    // chains upload → compute → download so consecutive frames
    // overlap stage-wise. One run() per device.
    // ------------------------------------------------------------
    serve::ReplayOptions ro;
    ro.span = "stream_replay";
    ro.threads = cfg.sim_threads;
    ro.trace_mode = cfg.trace_mode;
    ro.trace_sample_every = cfg.trace_sample_every;
    ro.pipelined = true;
    serve::Replay replay =
        serve::replayPlans(cfg.devices, pool.instances(), versions, ro);

    // Fold measured completions back into the frame table
    // (instance order, then plan order — deterministic), then run
    // the host postprocess chains per camera stream over the
    // completions in (done, seq) order.
    serve::FoldCounts folded;
    {
        EDGERT_SPAN("stream_fold",
                    {{"frames", std::to_string(frames.size())}});
        std::vector<obs::Histogram> batch_size =
            serve::modelHistograms("stream.batch.size", cfg.models);
        folded = serve::foldReplay(
            pool.instances(), n_models, frames, FrameRec::kCompleted,
            [&](const serve::Instance &inst,
                const serve::PlannedDispatch &pd) {
                batch_size[static_cast<std::size_t>(inst.model)].record(
                    pd.batch);
            });
        // Completed frames by (model, stream, done, seq); each
        // camera's postprocess chain is one run of that order.
        std::vector<std::int64_t> done;
        for (const FrameRec &fr : frames)
            if (fr.outcome == FrameRec::kCompleted)
                done.push_back(fr.id);
        auto key = [&frames](std::int64_t id) {
            const FrameRec &fr = frames[static_cast<std::size_t>(id)];
            return std::tie(fr.model, fr.stream, fr.done_s, fr.seq);
        };
        std::sort(done.begin(), done.end(),
                  [&key](std::int64_t a, std::int64_t b) {
                      return key(a) < key(b);
                  });
        const FrameRec *prev = nullptr;
        double post_free = 0.0;
        for (std::int64_t id : done) {
            FrameRec &fr = frames[static_cast<std::size_t>(id)];
            if (!prev || prev->model != fr.model ||
                prev->stream != fr.stream)
                post_free = 0.0;
            fr.post_done_s =
                std::max(fr.done_s, post_free) + fr.postprocess_dur_s;
            post_free = fr.post_done_s;
            prev = &fr;
        }
    }

    // ------------------------------------------------------------
    // Freshness: terminal outcomes feed the per-model trackers (and
    // the frame-age histograms) in frame-id order, and the per-(model,
    // stream) SloTrackerSet in time order so its sliding windows
    // see a monotone clock. A dropped frame is bad at its drop
    // time; a completed frame is bad at postprocess-done when its
    // age exceeds the stale budget. Lane `first_lane[m] + stream`
    // is named `<model>/cam<stream>`.
    // ------------------------------------------------------------
    std::vector<FreshnessTracker> fresh;
    std::vector<obs::Histogram> age_ms =
        serve::modelHistograms("stream.frame.age_ms", cfg.models);
    watch::SloTrackerSet slo(cfg.watch.slo_objective_pct);
    std::vector<int> first_lane;
    {
        EDGERT_SPAN("stream_freshness",
                    {{"frames", std::to_string(frames.size())}});
        for (const auto &mc : cfg.models) {
            fresh.emplace_back(mc.streams, mc.stale_ms);
            first_lane.push_back(static_cast<int>(slo.lanes()));
            for (int c = 0; c < mc.streams; c++)
                slo.addLane(mc.model + "/cam" + std::to_string(c));
        }
        for (const FrameRec &fr : frames) {
            auto m = static_cast<std::size_t>(fr.model);
            fresh[m].onProduced(fr.stream);
            switch (fr.outcome) {
              case FrameRec::kDropped:
                  fresh[m].onDropped(fr.stream);
                  break;
              case FrameRec::kCompleted:
                  fresh[m].onCompleted(fr.stream, fr.ageMs());
                  age_ms[m].record(fr.ageMs());
                  break;
              case FrameRec::kInFlight:
                  fresh[m].onLeftInFlight(fr.stream);
                  break;
            }
        }

        struct Item
        {
            double t;
            int rank; //!< 0 = drop, 1 = completion
            std::int64_t id;
            bool bad;
        };
        std::vector<Item> feed;
        for (const FrameRec &fr : frames) {
            if (fr.outcome == FrameRec::kDropped)
                feed.push_back(Item{fr.drop_s, 0, fr.id, true});
            else if (fr.outcome == FrameRec::kCompleted)
                feed.push_back(Item{
                    fr.post_done_s, 1, fr.id,
                    fr.ageMs() >
                        cfg.models[static_cast<std::size_t>(
                                       fr.model)]
                            .stale_ms});
        }
        std::sort(feed.begin(), feed.end(),
                  [](const Item &a, const Item &b) {
                      if (a.t != b.t)
                          return a.t < b.t;
                      if (a.rank != b.rank)
                          return a.rank < b.rank;
                      return a.id < b.id;
                  });
        for (const Item &it : feed) {
            const FrameRec &fr =
                frames[static_cast<std::size_t>(it.id)];
            slo.observe(
                first_lane[static_cast<std::size_t>(fr.model)] +
                    fr.stream,
                it.t, it.bad);
        }
        if (cfg.watch.enabled && !cfg.watch.out_path.empty())
            writeFreshnessFile(cfg.watch.out_path, slo);
    }

    // ------------------------------------------------------------
    // Report assembly (model order, then stream order).
    // ------------------------------------------------------------
    StreamReport report;
    report.seed = cfg.seed;
    report.duration_s = cfg.duration_s;
    {
        EDGERT_SPAN("stream_report",
                    {{"models", std::to_string(n_models)}});
        report.freshness = slo.rollup();

        // Stage attribution over completed frames in one frame-id-order
        // pass; the infer stages reuse watch::RequestTrace's breakdown.
        struct FrameStageSums
        {
            watch::StageSums infer;
            double decode = 0.0, preprocess = 0.0, postprocess = 0.0;
        };
        std::vector<FrameStageSums> stages(
            static_cast<std::size_t>(n_models));
        for (const FrameRec &fr : frames) {
            if (fr.outcome != FrameRec::kCompleted)
                continue;
            FrameStageSums &st = stages[static_cast<std::size_t>(fr.model)];
            watch::RequestTrace rt;
            rt.arrival_s = fr.ready_s;
            rt.dispatch_s = fr.dispatch_s;
            rt.begin_s = fr.begin_s;
            rt.upload_done_s = fr.upload_done_s;
            rt.compute_done_s = fr.compute_done_s;
            rt.done_s = fr.done_s;
            st.infer.add(rt);
            st.decode += (fr.decode_done_s - fr.capture_s) * 1e3;
            st.preprocess += (fr.ready_s - fr.decode_done_s) * 1e3;
            st.postprocess += (fr.post_done_s - fr.done_s) * 1e3;
        }

        for (int m = 0; m < n_models; m++) {
            auto mi = static_cast<std::size_t>(m);
            const auto &mc = cfg.models[mi];
            StreamModelStats s;
            s.model = mc.model;
            s.precision = nn::precisionName(mc.precision);
            s.policy = backpressurePolicyName(mc.policy);
            s.arrival = frameArrivalName(mc.arrival);
            s.streams = mc.streams;
            s.fps = mc.fps;
            s.stale_ms = mc.stale_ms;
            s.instances = static_cast<int>(pool.instancesOf(m).size());
            s.freshness = fresh[mi].totalStats();
            s.conserved = fresh[mi].conserved();
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
            const FrameStageSums &st = stages[mi];
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
                lane.freshness = fresh[mi].streamStats(c);
                if (const watch::SloTracker *t =
                        slo.find(first_lane[mi] + c))
                    lane.tier = t->tier();
                s.lanes.push_back(std::move(lane));
            }
            report.models.push_back(std::move(s));
        }

        report.devices =
            serve::deviceStats(cfg.devices, pool, replay, "stream");
    }
    if (!cfg.trace_out.empty())
        serve::saveReplayTrace(cfg.trace_out, cfg.devices, replay, {},
                               "stream");

    return report;
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

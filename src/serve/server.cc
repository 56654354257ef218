#include "serve/server.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/precision.hh"
#include "core/timing_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/measure.hh"

namespace edgert::serve {

gpusim::DeviceSpec
parseDevice(const std::string &name)
{
    if (name == "nx")
        return gpusim::DeviceSpec::xavierNX();
    if (name == "agx")
        return gpusim::DeviceSpec::xavierAGX();
    fatal("unknown device '", name, "' (expected nx|agx)");
}

namespace {

/** A swap rolls back when the candidate's canary latency exceeds
 *  the incumbent's by more than this percentage. */
constexpr double kRollbackRegressionPct = 10.0;

/** One EdgeServe run (startServer). */
class Server final : public FrontEnd<ServeReport>
{
  public:
    explicit Server(const ServeConfig &cfg)
        : FrontEnd("serve", "requests", static_cast<int>(cfg.models.size()),
                   cfg.devices, cfg.ram_fraction),
          cfg_(cfg), n_devices_(static_cast<int>(cfg.devices.size())),
          reg_(obs::MetricRegistry::global()),
          active_(cfg.models.size(), 0), stats_(cfg.models.size()),
          swap_fault_budget_(cfg.faults.swap_load_failures),
          queues_(cfg.models.size()), swap_paused_(cfg.models.size(), false)
    {
        validateModels("EdgeServe", cfg.models, cfg.duration_s);
        if (cfg.devices.empty())
            fatal("EdgeServe needs at least one device");
        setQueues(cfg.models, queues_.size(), cfg.dynamic_batching);

        // ------------------------------------------------------------
        // Build: engines come in *versions* — the version the run
        // starts with (index 0, built from cfg.build_id with one shared
        // timing cache so same-signature nodes measure once) plus any
        // candidate versions hot-swapped in mid-run. A version holds
        // one calibrated engine ladder per device. Engine loads are
        // fallible — injected faults stand in for corrupt or missing
        // plan files — and each failure is retried (a rebuild) up to
        // faults.max_load_attempts. A (model, device) pair whose loads
        // keep failing is left without engines; the placement below
        // routes around it.
        // ------------------------------------------------------------
        std::map<std::string, int> fault_budget =
            cfg.faults.engine_load_failures;
        {
            EDGERT_SPAN("serve_build",
                        {{"models", std::to_string(n_models_)},
                         {"devices", std::to_string(n_devices_)}});
            core::TimingCache timing_cache;
            for (int m = 0; m < n_models_; m++) {
                const auto &mc = cfg.models[static_cast<std::size_t>(m)];
                versions_[static_cast<std::size_t>(m)].push_back(
                    buildVersion(m, cfg.build_id, mc.precision,
                                 mc.calibration_seed, fault_budget,
                                 &timing_cache,
                                 std::vector<bool>(cfg.devices.size(), true)));
            }
        }

        // ------------------------------------------------------------
        // Placement: RAM-bounded instances per device, additionally
        // capped by the paper's Eq. 1 concurrency bound. A model with
        // instances on no device is degraded: all of its traffic is shed
        // while the other models keep serving.
        // ------------------------------------------------------------
        for (int m = 0; m < n_models_; m++) {
            const auto &mc = cfg.models[static_cast<std::size_t>(m)];
            std::vector<int> eq1 = placeOnDevices(
                pool_, m, versions_[static_cast<std::size_t>(m)].front(),
                mc.instances_per_device);
            for (int d = 0; d < n_devices_; d++)
                if (eq1[static_cast<std::size_t>(d)] >= 0)
                    reg_.gauge("serve.device.eq1_threads",
                               {{"device",
                                 cfg.devices[static_cast<std::size_t>(d)]
                                     .name},
                                {"index", std::to_string(d)},
                                {"model", mc.model}})
                        .set(static_cast<double>(
                            eq1[static_cast<std::size_t>(d)]));
            if (pool_.instancesOf(m).empty()) {
                // No engines anywhere (persistent load faults) or no
                // RAM budget fits the context: degrade this model —
                // shed its traffic — instead of failing the fleet.
                stats_[static_cast<std::size_t>(m)].degraded = true;
                reg_.gauge("serve.model.degraded", {{"model", mc.model}})
                    .set(1.0);
                warn("EdgeServe: model '", mc.model,
                     "' has no usable instances (engine loads failed "
                     "or no RAM budget fits); shedding its traffic");
            }
        }

        requests_ = loadRequests(cfg.models, cfg.duration_s, cfg.seed);

        // Hot-swaps: one state per SwapSpec, spec order.
        for (std::size_t s = 0; s < cfg.swaps.size(); s++) {
            const SwapSpec &sp = cfg.swaps[s];
            int m = -1;
            for (int i = 0; i < n_models_; i++)
                if (cfg.models[static_cast<std::size_t>(i)].model ==
                    sp.model)
                    m = i;
            if (m < 0)
                fatal("hot-swap for unknown model '", sp.model, "'");
            if (sp.t_s < 0.0)
                fatal("hot-swap time must be non-negative (got ",
                      sp.t_s, ")");
            SwapState st;
            st.model = m;
            swap_states_.push_back(st);
            events_.push(sp.t_s, Event::kSwapBegin, static_cast<int>(s));
        }

        // Queue depths record in control order and predictor errors and
        // batch sizes in fold order; every serve counter is published
        // once, from the report.
        queue_depth_ = modelHistograms("serve.queue.depth", cfg.models);
    }

    ServeReport finish() override
    {
        // ------------------------------------------------------------
        // Phase 2 — execution replay: every dispatch released at its
        // planned time, one run() per device. Measured completions, not
        // predictions, feed all reported statistics.
        // ------------------------------------------------------------
        const Replay replayed = replay(tracedReplay(cfg_));

        ServeReport out;
        out.seed = cfg_.seed;
        out.duration_s = cfg_.duration_s;
        out.admission_control = cfg_.admission_control;
        out.dynamic_batching = cfg_.dynamic_batching;
        report(out, replayed);
        const std::vector<profile::SimSpan> watch_spans = watch(out);
        if (!cfg_.trace_out.empty())
            saveReplayTrace(cfg_.trace_out, cfg_.devices, replayed,
                            watch_spans, "watch: slow requests");
        return out;
    }

  private:
    /**
     * One SwapSpec's progress, a small state machine: serving
     * --kSwapBegin--> warming (dispatch paused; the candidate loads,
     * canaries run) --kSwapReady--> committed | rolled back -->
     * serving. A candidate that fails to load rolls back at once,
     * without pausing.
     */
    struct SwapState
    {
        int model = -1;
        int to_version = -1; //!< into versions[model]; -1 until loaded
        bool rolled_back = false;
        std::string reason; //!< machine-readable rollback reason
        double begin_s = 0.0;
        double ready_s = 0.0;
        double incumbent_canary_ms = 0.0;
        double candidate_canary_ms = 0.0;
    };

    // Phase 1 — the control loop over (arrival, timeout, predicted-
    // free, swap) events. Decisions use predicted service times only;
    // the output is each instance's dispatch plan.
    void onEvent(const Event &e) override
    {
        switch (e.kind) {
          case Event::kArrival: {
              Request &r = requests_[static_cast<std::size_t>(e.req)];
              const int m = r.model;
              const auto mi = static_cast<std::size_t>(m);
              RequestQueue &q = queues_[mi];
              q.observeArrival(e.t);
              if (stats_[mi].degraded) {
                  // No backend exists for this model; shed instead of
                  // queueing forever.
                  r.outcome = Outcome::kShed;
                  return;
              }
              if (cfg_.admission_control) {
                  double est_s = predictSojournSeconds(
                      pool_.instancesOf(m), pool_.instances(), versions_,
                      batchers_[mi].policy(), static_cast<int>(q.size()),
                      e.t, q.rateHz(), sojourn_scratch_);
                  if (est_s * 1e3 > r.slo_ms) {
                      r.outcome = Outcome::kShed;
                      return;
                  }
              }
              q.push(r.id, e.t);
              queue_depth_[mi].record(static_cast<double>(q.size()));
              tryDispatch(m, e.t);
              return;
          }
          case Event::kTimeout:
          case Event::kPredFree:
              tryDispatch(eventModel(e), e.t);
              return;
          case Event::kSwapBegin:
              beginSwap(e);
              return;
          case Event::kSwapReady:
              endSwap(e);
              return;
          default: // fleet membership kinds: never pushed here
              return;
        }
    }

    std::size_t units() const override { return requests_.size(); }

    // Build one engine version of model m on the devices `load`
    // selects. Each load first draws on the model's fault `budget`:
    // a failed load is retried (a rebuild) up to max_load_attempts,
    // and a device whose loads all fail gets no ladder. `cache` is the
    // run's shared timing cache for the initial load; swap-time
    // candidates (null) re-time their tactics — a rebuild that may
    // pick different kernels is exactly what the deploy layer's drift
    // gate screens, and a tactic-frozen rebuild would make
    // hot-swapping moot.
    ModelVersion buildVersion(int m, std::uint64_t build_id,
                              nn::Precision precision,
                              std::uint64_t calibration_seed,
                              std::map<std::string, int> &budget,
                              core::TimingCache *cache,
                              std::vector<bool> load)
    {
        const auto mi = static_cast<std::size_t>(m);
        const auto &mc = cfg_.models[mi];
        EDGERT_SPAN("serve_load_version",
                    {{"model", mc.model}, {"build", std::to_string(build_id)}});
        const int attempts = std::max(1, cfg_.faults.max_load_attempts);
        for (std::size_t d = 0; d < load.size(); d++) {
            bool loaded = false;
            for (int a = 0; load[d] && a < attempts; a++) {
                auto it = budget.find(mc.model);
                if (it == budget.end() || it->second <= 0) {
                    loaded = true;
                    if (a > 0)
                        stats_[mi].rebuilds++;
                    break;
                }
                it->second--;
                stats_[mi].load_failures++;
                warn("EdgeServe: engine load for '", mc.model, "' on ",
                     cfg_.devices[d].name, "[", d, "] failed (attempt ",
                     a + 1, "/", attempts,
                     "): injected engine-load fault for '", mc.model, "'");
            }
            load[d] = loaded;
        }
        return serve::buildVersion(
            {mc.model, precision, calibration_seed, build_id,
             batchers_[mi].policy().max_batch},
            cfg_.devices, &load, [&](std::size_t) { return cache; });
    }

    const ModelVersion &activeVersion(int m) const
    {
        const auto mi = static_cast<std::size_t>(m);
        return versions_[mi][static_cast<std::size_t>(active_[mi])];
    }

    // Roll swap s back to the incumbent: `why` is the machine-readable
    // reason, `detail` the human one.
    void rollBack(std::size_t s, const char *why, const std::string &detail)
    {
        SwapState &st = swap_states_[s];
        const auto mi = static_cast<std::size_t>(st.model);
        const std::string &name = cfg_.models[mi].model;
        st.rolled_back = true;
        st.reason = why;
        stats_[mi].swaps_rolled_back++;
        stats_[mi].swap_rollback_reason = why;
        reg_.counter("deploy.swap.rolled_back",
                     {{"model", name}, {"reason", why}})
            .add();
        warn("EdgeServe: hot-swap of '", name, "' to build ",
             cfg_.swaps[s].candidate_build_id, " rolled back (", detail,
             ")");
    }

    void tryDispatch(int m, double t)
    {
        const auto mi = static_cast<std::size_t>(m);
        if (swap_paused_[mi])
            return;
        cut(queues_[mi], &RequestQueue::oldestArrivalSeconds, m, mi, t,
            [&](double now) { return pool_.freeInstance(m, now); });
    }

    void beginSwap(const Event &e)
    {
        const auto s = static_cast<std::size_t>(e.target);
        const SwapSpec &sp = cfg_.swaps[s];
        SwapState &st = swap_states_[s];
        const int m = st.model;
        const auto mi = static_cast<std::size_t>(m);
        const std::string &name = cfg_.models[mi].model;
        EDGERT_SPAN("deploy_swap",
                    {{"model", name},
                     {"build", std::to_string(sp.candidate_build_id)}});
        reg_.counter("deploy.swap.attempted", {{"model", name}}).add();
        stats_[mi].swaps++;
        if (stats_[mi].degraded) {
            rollBack(s, "model_degraded", "model_degraded");
            return;
        }
        if (swap_paused_[mi]) {
            rollBack(s, "overlapping_swap", "overlapping_swap");
            return;
        }

        // The candidate loads through the same fault machinery as the
        // initial placement (from the swap budget), on exactly the
        // devices the incumbent serves. A candidate missing any of those
        // devices cannot take over: roll back without ever pausing the
        // incumbent.
        std::vector<bool> mask(static_cast<std::size_t>(n_devices_));
        for (int d = 0; d < n_devices_; d++)
            mask[static_cast<std::size_t>(d)] =
                activeVersion(m).availableOn(d);
        // A cross-precision swap (SwapSpec::precision set) builds the
        // candidate ladder at its own precision — the drift gate
        // upstream already judged it against the incumbent's lineage.
        ModelVersion cand = buildVersion(
            m, sp.candidate_build_id,
            sp.precision.value_or(cfg_.models[mi].precision),
            sp.calibration_seed, swap_fault_budget_, nullptr, mask);
        // The mask is never empty: a model that is not degraded serves
        // on at least one device.
        bool usable = true;
        for (int d = 0; d < n_devices_; d++)
            if (mask[static_cast<std::size_t>(d)] && !cand.availableOn(d))
                usable = false;
        if (!usable) {
            rollBack(s, "load_failure", "load_failure");
            return;
        }

        // Canary: measured batch-1 latency of incumbent vs candidate on
        // the first serving device. The model's dispatch pauses for the
        // warmup window (context creation, weight upload, canary runs on
        // both versions) — that window is the swap's downtime; queued
        // requests simply wait it out.
        int d0 = 0;
        for (int d = 0; d < n_devices_; d++)
            if (mask[static_cast<std::size_t>(d)]) {
                d0 = d;
                break;
            }
        const auto di = static_cast<std::size_t>(d0);
        runtime::LatencyOptions lo;
        lo.runs = 3;
        lo.with_profiler = false;
        lo.noise_seed = cfg_.seed + static_cast<std::uint64_t>(e.target);
        auto inc = runtime::measureLatency(
            activeVersion(m).sets[di].engines.front(), cfg_.devices[di], lo);
        auto cnd = runtime::measureLatency(cand.sets[di].engines.front(),
                                           cfg_.devices[di], lo);
        st.incumbent_canary_ms = inc.mean_ms;
        st.candidate_canary_ms = cnd.mean_ms;
        double warmup_s = 0.0;
        for (double s_ms : inc.samples_ms)
            warmup_s += s_ms * 1e-3;
        for (double s_ms : cnd.samples_ms)
            warmup_s += s_ms * 1e-3;

        versions_[mi].push_back(std::move(cand));
        st.to_version = static_cast<int>(versions_[mi].size()) - 1;
        st.begin_s = e.t;
        st.ready_s = e.t + warmup_s;
        swap_paused_[mi] = true;
        stats_[mi].swap_downtime_ms += warmup_s * 1e3;
        reg_.histogram("deploy.swap.downtime_ms", {{"model", name}})
            .record(warmup_s * 1e3);
        events_.push(st.ready_s, Event::kSwapReady, e.target);
    }

    void endSwap(const Event &e)
    {
        SwapState &st = swap_states_[static_cast<std::size_t>(e.target)];
        const int m = st.model;
        const auto mi = static_cast<std::size_t>(m);
        const std::string &name = cfg_.models[mi].model;
        double limit = st.incumbent_canary_ms *
                       (1.0 + kRollbackRegressionPct / 100.0);
        if (st.candidate_canary_ms > limit) {
            std::ostringstream detail;
            detail << "canary " << st.candidate_canary_ms
                   << " ms vs incumbent " << st.incumbent_canary_ms << " ms";
            rollBack(static_cast<std::size_t>(e.target),
                     "latency_regression", detail.str());
        } else {
            active_[mi] = st.to_version;
            for (int idx : pool_.instancesOf(m))
                pool_.instances()[static_cast<std::size_t>(idx)].version =
                    st.to_version;
            reg_.counter("deploy.swap.committed", {{"model", name}}).add();
        }
        reg_.gauge("deploy.model.active_build", {{"model", name}})
            .set(static_cast<double>(activeVersion(m).build_id));
        swap_paused_[mi] = false;
        tryDispatch(m, e.t);
    }

    // Fold, then report assembly (request-id order keeps every metric
    // write deterministic).
    void report(ServeReport &out, const Replay &replayed)
    {
        // Fold measured completions back into the request table and the
        // predictor-error and batch-size metrics (instance order, then
        // plan order — deterministic).
        std::vector<double> mae_sum(static_cast<std::size_t>(n_models_), 0.0);
        for (int m = 0; m < n_models_; m++)
            stats_[static_cast<std::size_t>(m)].versions.resize(
                versions_[static_cast<std::size_t>(m)].size());
        std::vector<obs::Histogram> predictor_err =
            modelHistograms("serve.predictor.error_pct", cfg_.models);
        std::vector<obs::Histogram> batch_size =
            modelHistograms("serve.batch.size", cfg_.models);
        const FoldCounts folded = fold(
            requests_, Outcome::kCompleted,
            [&](const Instance &inst, const PlannedDispatch &pd) {
                const auto m = static_cast<std::size_t>(inst.model);
                double actual_s = std::max(pd.end_s - pd.begin_s, 1e-12);
                double err_pct = std::fabs(pd.predicted_service_s - actual_s) /
                                 actual_s * 100.0;
                predictor_err[m].record(err_pct);
                batch_size[m].record(pd.batch);
                mae_sum[m] += err_pct;
                stats_[m].versions[static_cast<std::size_t>(pd.version)]
                    .batches++;
            });

        const obs::ScopedSpan phase = modelSpan("report");
        // One pass over the request table tallies it by model, by
        // (model, engine version of its dispatch; version 0 when it had
        // none) and by (model, arrival inside a swap window).
        std::vector<Tally> by_model(static_cast<std::size_t>(n_models_));
        std::vector<std::vector<Tally>> by_version, by_window;
        for (const auto &mv : versions_) {
            by_version.emplace_back(mv.size());
            by_window.emplace_back(2);
        }
        for (const Request &r : requests_) {
            const auto mi = static_cast<std::size_t>(r.model);
            bool in = false; // inside a warmed swap's window
            for (const SwapState &st : swap_states_)
                in = in || (st.model == r.model && st.to_version >= 0 &&
                            r.arrival_s >= st.begin_s &&
                            r.arrival_s <= st.ready_s + 0.25);
            by_model[mi].add(r);
            const int version =
                r.instance < 0 ? 0 : planOf(pool_.instances(), r).version;
            by_version[mi][static_cast<std::size_t>(version)].add(r);
            by_window[mi][in ? 1 : 0].add(r);
        }

        for (int m = 0; m < n_models_; m++) {
            auto mi = static_cast<std::size_t>(m);
            const auto &mc = cfg_.models[mi];
            const auto &mv = versions_[mi];
            ModelStats &s = stats_[mi];
            s.model = mc.model;
            s.slo_ms = mc.slo_ms;
            s.instances = static_cast<int>(pool_.instancesOf(m).size());
            s.active_build_id = activeVersion(m).build_id;
            s.fill(by_model[mi], folded, mi, cfg_.duration_s);
            const obs::Labels ml = {{"model", mc.model}};
            for (const auto &[name, n] :
                 {std::pair{"serve.request.offered", s.offered},
                  {"serve.request.shed", s.shed},
                  {"serve.request.completed", s.completed},
                  {"serve.request.slo_violations", s.slo_violations},
                  {"serve.batch.dispatched", s.batches},
                  {"serve.engine.load_failures", s.load_failures},
                  {"serve.engine.rebuilds", s.rebuilds}})
                reg_.counter(name, ml).add(n);
            reg_.histogram("serve.request.latency_ms", ml)
                .recordBatch(by_model[mi].latency_ms);
            // Mean absolute predictor error over the model's batches.
            if (s.batches > 0)
                s.predictor_mae_pct =
                    mae_sum[mi] / static_cast<double>(s.batches);
            const Tally &in_win = by_window[mi][1];
            const Tally &out_win = by_window[mi][0];
            if (!in_win.latency_ms.empty())
                s.p99_swap_ms = percentile(in_win.latency_ms, 99.0);
            if (!out_win.latency_ms.empty())
                s.p99_steady_ms = percentile(out_win.latency_ms, 99.0);

            // Per engine-version breakdown (hot-swap lineage).
            for (std::size_t v = 0; v < mv.size(); v++) {
                VersionStats &vs = s.versions[v];
                const Tally &t = by_version[mi][v];
                vs.build_id = mv[v].build_id;
                for (int d = 0; d < n_devices_; d++)
                    if (mv[v].availableOn(d)) {
                        vs.fingerprint =
                            mv[v].sets[static_cast<std::size_t>(d)]
                                .engines.front()
                                .fingerprint();
                        break;
                    }
                vs.completed = t.completed;
                if (!t.latency_ms.empty()) {
                    vs.mean_ms = mean(t.latency_ms);
                    vs.p99_ms = percentile(t.latency_ms, 99.0);
                }
            }
        }
        out.models = std::move(stats_);

        out.devices = deviceStats(pool_, replayed, "serve");
        for (int d = 0; d < n_devices_; d++)
            reg_.gauge("serve.device.ram_used_bytes",
                       {{"device",
                         cfg_.devices[static_cast<std::size_t>(d)].name},
                        {"index", std::to_string(d)}})
                .set(static_cast<double>(
                    out.devices[static_cast<std::size_t>(d)]
                        .ram_used_bytes));
    }

    // EdgeWatch: replay the run's admissions, sheds, dispatches,
    // completions (with stage attribution) and swap lifecycle as one
    // time-ordered feed. The feed is built from the same deterministic
    // tables as the report, so the watch report and every incident file
    // are byte-identical across runs — and the serve report itself never
    // depends on whether watch is on. Returns the slow-request overlay of
    // the merged trace.
    std::vector<profile::SimSpan> watch(ServeReport &out) const
    {
        std::vector<profile::SimSpan> watch_spans;
        if (!cfg_.watch.enabled)
            return watch_spans;
        const obs::ScopedSpan phase = modelSpan("watch");
        std::vector<std::string> model_names;
        std::vector<double> slo_ms;
        for (const auto &mc : cfg_.models) {
            model_names.push_back(mc.model);
            slo_ms.push_back(mc.slo_ms);
        }
        std::vector<std::string> dev_names;
        std::vector<double> dev_scores;
        for (int d = 0; d < n_devices_; d++) {
            const auto &spec = cfg_.devices[static_cast<std::size_t>(d)];
            dev_names.push_back(spec.name + "[" + std::to_string(d) + "]");
            // Precision-effective capability: raw FP16 FLOPs scored a
            // device identically whether it serves FP16 or INT8 ladders,
            // mis-ranking fleets where INT8 runs ~1.6x the HMMA rate.
            // Weight the peak by the mean throughput factor of the
            // precisions actually served here.
            double factor = 0.0;
            for (const auto &mc : cfg_.models)
                factor += core::precisionThroughputFactor(spec, mc.precision);
            factor /= static_cast<double>(cfg_.models.size());
            dev_scores.push_back(spec.peakFp16Flops() * factor);
        }
        watch::EdgeWatch ew(cfg_.watch, model_names, slo_ms, dev_names,
                            dev_scores);

        // One entry per event; equal times feed in Rank order, then in
        // the order the entries are listed below. `ref` indexes the table
        // the event comes from.
        enum Rank { kArrive, kSwapBegin, kDispatch, kSwapEnd, kDone };
        struct FeedItem
        {
            double t;
            Rank rank;
            std::size_t ref;
        };
        std::vector<FeedItem> feed;
        std::vector<std::pair<const Instance *, const PlannedDispatch *>>
            dispatches;
        for (const Request &r : requests_) {
            const auto ri = static_cast<std::size_t>(r.id);
            feed.push_back({r.arrival_s, kArrive, ri});
            if (r.outcome == Outcome::kCompleted)
                feed.push_back({r.done_s, kDone, ri});
        }
        for (const Instance &inst : pool_.instances())
            for (const auto &pd : inst.plan) {
                feed.push_back({pd.t_s, kDispatch, dispatches.size()});
                dispatches.emplace_back(&inst, &pd);
            }
        for (std::size_t s = 0; s < swap_states_.size(); s++) {
            const SwapState &st = swap_states_[s];
            const bool warmed = st.to_version >= 0;
            const double t_s = cfg_.swaps[s].t_s;
            feed.push_back({warmed ? st.begin_s : t_s, kSwapBegin, s});
            feed.push_back({warmed ? st.ready_s : t_s, kSwapEnd, s});
        }
        std::stable_sort(feed.begin(), feed.end(),
                         [](const FeedItem &a, const FeedItem &b) {
                             if (a.t != b.t)
                                 return a.t < b.t;
                             return a.rank < b.rank;
                         });
        for (const FeedItem &it : feed) {
            switch (it.rank) {
              case kArrive: {
                  const Request &r = requests_[it.ref];
                  if (r.outcome == Outcome::kShed)
                      ew.onShed(it.t, r.model, r.id);
                  else
                      ew.onAdmit(it.t, r.model, r.id);
                  break;
              }
              case kSwapBegin:
                  ew.onSwapBegin(it.t, swap_states_[it.ref].model,
                                 cfg_.swaps[it.ref].candidate_build_id);
                  break;
              case kDispatch: {
                  const auto &[inst, pd] = dispatches[it.ref];
                  ew.onDispatch(it.t, inst->model, pd->batch, inst->device,
                                pd->batch == 0 ? -1
                                               : inst->idsOf(*pd).front());
                  break;
              }
              case kSwapEnd: {
                  const SwapState &st = swap_states_[it.ref];
                  if (st.rolled_back)
                      ew.onSwapRollback(it.t, st.model, st.reason);
                  else
                      ew.onSwapCommit(it.t, st.model,
                                      cfg_.swaps[it.ref].candidate_build_id);
                  break;
              }
              case kDone: {
                  const Request &r = requests_[it.ref];
                  ew.onComplete(
                      requestTrace(pool_.instances(), r, r.arrival_s));
                  break;
              }
            }
        }
        ew.finish();
        out.watch = ew.summary();
        ew.writeFiles();

        // Slow requests overlay the device tracks in the merged trace:
        // one track per retained request, stage spans on the simulated
        // clock.
        for (std::size_t i = 0; i < out.watch.slow_requests.size(); i++) {
            const watch::RequestTrace &r = out.watch.slow_requests[i];
            auto span = [&](const char *stage, double a, double b) {
                profile::SimSpan s;
                s.name = "r" + std::to_string(r.id) + " " + stage;
                s.track = static_cast<int>(i);
                s.start_s = a;
                s.end_s = b;
                s.args = {
                    {"model", model_names[static_cast<std::size_t>(r.model)]},
                    {"batch", std::to_string(r.batch)},
                    {"device", std::to_string(r.device)}};
                watch_spans.push_back(std::move(s));
            };
            span("queue", r.arrival_s, r.dispatch_s);
            span("dispatch_wait", r.dispatch_s, r.begin_s);
            span("upload", r.begin_s, r.upload_done_s);
            span("compute", r.upload_done_s, r.compute_done_s);
            span("download", r.compute_done_s, r.done_s);
        }
        return watch_spans;
    }

    const ServeConfig &cfg_;
    const int n_devices_;
    obs::MetricRegistry &reg_;
    std::vector<int> active_; //!< per model: version new batches use
    /** Per-model outcomes; load and swap tallies accrue as they
     *  happen, the rest is filled in at report time. */
    std::vector<ModelStats> stats_;
    std::map<std::string, int> swap_fault_budget_;
    std::vector<Request> requests_;
    std::vector<RequestQueue> queues_;
    std::vector<SwapState> swap_states_; //!< one per SwapSpec
    /** Dispatch pauses per model while a hot-swap candidate warms
     *  up: queued requests wait out the window, none are dropped. */
    std::vector<bool> swap_paused_;
    std::vector<obs::Histogram> queue_depth_;
    std::vector<double> sojourn_scratch_; //!< reused by every admission
};

} // namespace

std::unique_ptr<FrontEnd<ServeReport>>
startServer(const ServeConfig &cfg)
{
    return std::make_unique<Server>(cfg);
}

ServeReport
runServer(const ServeConfig &cfg)
{
    const auto server = startServer(cfg);
    server->controlUntil(std::numeric_limits<double>::infinity());
    return server->finish();
}

std::string
ServeReport::toJson() const
{
    using Layout = JsonWriter::Layout;
    JsonWriter w;
    w.beginObject();
    w.field("seed", seed);
    w.field("duration_s", duration_s);
    w.field("admission_control", admission_control);
    w.field("dynamic_batching", dynamic_batching);
    w.key("models").beginArray();
    for (const ModelStats &s : models) {
        w.beginObject();
        w.field("model", s.model);
        w.field("slo_ms", s.slo_ms);
        w.field("instances", s.instances);
        w.field("degraded", s.degraded);
        w.field("load_failures", s.load_failures);
        w.field("rebuilds", s.rebuilds);
        w.field("offered", s.offered);
        w.field("offered_qps", s.offered_qps);
        w.field("shed", s.shed);
        w.field("completed", s.completed);
        w.field("slo_violations", s.slo_violations);
        w.field("batches", s.batches);
        w.field("mean_batch", s.mean_batch);
        w.field("goodput_qps", s.goodput_qps);
        s.writeJson(w, "latency_ms");
        w.field("predictor_mae_pct", s.predictor_mae_pct);
        w.field("active_build_id", s.active_build_id);
        w.field("swaps", s.swaps);
        w.field("swaps_rolled_back", s.swaps_rolled_back);
        w.field("swap_downtime_ms", s.swap_downtime_ms);
        w.field("swap_rollback_reason", s.swap_rollback_reason);
        w.field("p99_swap_ms", s.p99_swap_ms);
        w.field("p99_steady_ms", s.p99_steady_ms);
        w.key("versions").beginArray();
        for (const VersionStats &vs : s.versions) {
            w.beginObject(Layout::Inline);
            w.field("build_id", vs.build_id);
            w.field("fingerprint", std::to_string(vs.fingerprint));
            w.field("batches", vs.batches);
            w.field("completed", vs.completed);
            w.field("mean_ms", vs.mean_ms);
            w.field("p99_ms", vs.p99_ms);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    writeDevicesJson(w, devices);
    // Trailing key so watch-off reports keep their pre-watch bytes.
    if (watch.enabled) {
        w.key("watch").beginObject();
        w.field("admitted", watch.admitted);
        w.field("shed", watch.shed);
        w.field("completed", watch.completed);
        w.field("page_alerts", watch.alert_counts.pages);
        w.field("warn_alerts", watch.alert_counts.warns);
        w.field("clear_alerts", watch.alert_counts.clears);
        w.field("anomalies", watch.anomalies);
        w.field("incidents", watch.incidents);
        w.field("first_page_s", watch.alert_counts.first_page_s);
        w.key("models").beginArray();
        for (const watch::ModelWatchStats &m : watch.models) {
            w.beginObject(Layout::Inline);
            w.field("model", m.model);
            w.field("tier", watch::alertTierName(m.tier));
            w.field("burn_fast", m.burn.fast);
            w.field("burn_mid", m.burn.mid);
            w.field("burn_slow", m.burn.slow);
            w.field("observed", m.observed);
            w.field("bad", m.bad);
            w.key("stage_mean_ms").beginObject();
            m.stage_mean_ms.writeFields(w);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    return w.str() + "\n";
}

} // namespace edgert::serve

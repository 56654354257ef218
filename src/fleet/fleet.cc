#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/timing_cache.hh"
#include "deploy/cohort.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batcher.hh"
#include "serve/cli.hh"
#include "serve/core.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"

namespace edgert::fleet {

namespace {

using serve::Event;

/** Probe keys per remap measurement (membership-change events
 *  report the share of key space that moved). */
constexpr int kRemapProbes = 4096;

int
modelIndex(const FleetConfig &cfg, const std::string &name)
{
    for (std::size_t m = 0; m < cfg.models.size(); m++)
        if (cfg.models[m].model == name)
            return static_cast<int>(m);
    fatal("unknown fleet model '", name, "'");
}

/** `cfg`'s fleet, once `cfg` is known to describe a run. */
ResolvedFleet
validated(const FleetConfig &cfg)
{
    serve::validateModels("EdgeFleet", cfg.models, cfg.duration_s);
    if (cfg.vnodes < 1)
        fatal("fleet vnodes must be >= 1 (got ", cfg.vnodes, ")");
    if (cfg.sojourn_choices < 1)
        fatal("fleet sojourn_choices must be >= 1 (got ",
              cfg.sojourn_choices, ")");

    ResolvedFleet fleet = resolveFleet(cfg.groups);
    const int n_nodes = static_cast<int>(fleet.nodes.size());
    for (const FailureSpec &f : cfg.failures) {
        if (f.node < 0 || f.node >= n_nodes)
            fatal("failure names node ", f.node,
                  " outside the fleet (", n_nodes, " nodes)");
        if (f.fail_s < 0.0)
            fatal("failure time must be non-negative (got ",
                  f.fail_s, ")");
        if (f.rejoin_s >= 0.0 && f.rejoin_s <= f.fail_s)
            fatal("rejoin time must be after the failure (fail ",
                  f.fail_s, ", rejoin ", f.rejoin_s, ")");
    }
    for (const RolloutSpec &ro : cfg.rollouts) {
        modelIndex(cfg, ro.model);
        if (ro.stages.empty())
            fatal("rollout for '", ro.model, "' has no stages");
        double prev = -1.0;
        for (const RolloutStage &st : ro.stages) {
            if (st.t_s < 0.0 || st.t_s <= prev)
                fatal("rollout stages for '", ro.model,
                      "' must have ascending non-negative times");
            if (st.pct <= 0.0 || st.pct > 100.0)
                fatal("rollout stage pct must be in (0, 100] (got ",
                      st.pct, ")");
            prev = st.t_s;
        }
    }
    return fleet;
}

std::vector<gpusim::DeviceSpec>
nodeSpecs(const ResolvedFleet &fleet)
{
    std::vector<gpusim::DeviceSpec> out;
    for (std::size_t node = 0; node < fleet.nodes.size(); node++)
        out.push_back(fleet.specOf(static_cast<int>(node)));
    return out;
}

/** One EdgeFleet run (startFleet). */
class Fleet final : public serve::FrontEnd<FleetReport>
{
  public:
    explicit Fleet(const FleetConfig &cfg) : Fleet(cfg, validated(cfg)) {}

    FleetReport finish() override
    {
        // ------------------------------------------------------------
        // Phase 2 — execution replay: one GpuSim per node. Per-node
        // registries fold into the global one under a per-group prefix:
        // nodes of a pool merge additively into one
        // "fleet.<group>.gpusim.*" rollup, in node id order. Kernel
        // traces stay off: a 500-node replay would otherwise retain
        // every simulated launch record.
        // ------------------------------------------------------------
        serve::ReplayOptions ro;
        ro.threads = cfg_.sim_threads;
        ro.trace_mode = gpusim::TraceMode::kOff;
        for (const FleetNode &fn : fleet_.nodes)
            ro.metric_prefixes.push_back(
                "fleet." +
                fleet_.groups[static_cast<std::size_t>(fn.group)].name + ".");
        replay(ro);

        // Fold measured completions back (node-major instance order,
        // then plan order — deterministic).
        const serve::FoldCounts folded =
            fold(requests_, serve::Outcome::kCompleted);

        // ------------------------------------------------------------
        // Report assembly (request-id order).
        // ------------------------------------------------------------
        const obs::ScopedSpan phase = modelSpan("report");
        FleetReport report;
        report.seed = cfg_.seed;
        report.duration_s = cfg_.duration_s;
        report.route_policy = routePolicyName(cfg_.route_policy);
        report.placement = placementPolicyName(cfg_.placement);
        report.vnodes = cfg_.vnodes;
        report.nodes = n_nodes_;

        // One pass over the request table tallies it fleet-wide, by
        // model and by the group of the node that completed the request.
        serve::Tally all;
        std::vector<serve::Tally> by_model(static_cast<std::size_t>(n_models_));
        std::vector<serve::Tally> by_group(fleet_.groups.size());
        const std::vector<serve::Instance> &instances = pool_.instances();
        for (const serve::Request &r : requests_) {
            all.add(r);
            by_model[static_cast<std::size_t>(r.model)].add(r);
            if (r.outcome != serve::Outcome::kCompleted)
                continue;
            const int node =
                instances[static_cast<std::size_t>(r.instance)].device;
            by_group[static_cast<std::size_t>(
                         fleet_.nodes[static_cast<std::size_t>(node)].group)]
                .add(r);
        }
        report.offered = all.offered;
        report.completed = all.completed;
        report.shed = all.shed;
        report.unaccounted = all.offered - all.shed - all.completed;
        report.aggregate_offered_qps =
            static_cast<double>(report.offered) / cfg_.duration_s;
        report.summarize(all.latency_ms);

        for (int c = 0; c < n_classes_; c++) {
            FleetClassStats cs;
            cs.label = fleet_.classes[static_cast<std::size_t>(c)].label();
            for (const FleetNode &fn : fleet_.nodes)
                if (fn.dev_class == c)
                    cs.nodes++;
            for (const auto &mv : versions_)
                cs.svc1_ms.push_back(
                    mv[0].sets[static_cast<std::size_t>(c)].service_s.front() *
                    1e3);
            report.classes.push_back(std::move(cs));
        }

        for (int m = 0; m < n_models_; m++) {
            auto mi = static_cast<std::size_t>(m);
            const auto &mc = cfg_.models[mi];
            const serve::Tally &t = by_model[mi];
            FleetModelStats s;
            s.model = mc.model;
            s.slo_ms = mc.slo_ms;
            s.serving_nodes = serving_nodes_[mi];
            s.placement_rank = placement_rank_labels_[mi];
            s.fill(t, folded, mi, cfg_.duration_s);
            s.attainment_pct =
                t.offered > 0 ? 100.0 * static_cast<double>(t.within_slo) /
                                    static_cast<double>(t.offered)
                              : 0.0;
            report.models.push_back(std::move(s));
        }

        for (std::size_t g = 0; g < fleet_.groups.size(); g++) {
            FleetGroupStats gs;
            gs.group = fleet_.groups[g].name;
            for (const FleetNode &fn : fleet_.nodes) {
                if (static_cast<std::size_t>(fn.group) != g)
                    continue;
                if (gs.nodes == 0)
                    gs.dev_class =
                        fleet_.classes[static_cast<std::size_t>(fn.dev_class)]
                            .label();
                gs.nodes++;
                if (quarantined_[static_cast<std::size_t>(fn.id)])
                    gs.quarantined++;
                if (failed_[static_cast<std::size_t>(fn.id)])
                    gs.failed++;
            }
            const std::vector<double> &lat = by_group[g].latency_ms;
            gs.completed = by_group[g].completed;
            if (!lat.empty()) {
                gs.mean_ms = mean(lat);
                gs.p99_ms = percentile(lat, 99.0);
            }
            report.groups.push_back(std::move(gs));
        }

        report.events = std::move(membership_);
        report.rollouts = std::move(ro_stats_);

        report.alerts = slo_.rollup();
        for (std::size_t g = 0; g < group_alerts_.size(); g++) {
            const watch::AlertCounts &c = group_alerts_[g];
            if (c.pages + c.warns + c.clears > 0)
                report.alerts_by_group.emplace_back(fleet_.groups[g].name, c);
        }
        std::sort(report.alerts_by_group.begin(),
                  report.alerts_by_group.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });

        // A handful of fleet-level gauges for the CLI's metric dumps.
        obs::MetricRegistry &reg = obs::MetricRegistry::global();
        reg.gauge("fleet.nodes", {}).set(static_cast<double>(n_nodes_));
        reg.gauge("fleet.nodes.quarantined", {})
            .set(static_cast<double>(std::count(
                quarantined_.begin(), quarantined_.end(), true)));
        for (const FleetModelStats &s : report.models) {
            const obs::Labels ml = {{"model", s.model}};
            reg.gauge("fleet.model.completed", ml)
                .set(static_cast<double>(s.completed));
            reg.gauge("fleet.model.shed", ml)
                .set(static_cast<double>(s.shed));
            reg.gauge("fleet.model.p99_ms", ml).set(s.p99_ms);
        }
        return report;
    }

  private:
    /** Mutable per-rollout progress. */
    struct RolloutState
    {
        int model = -1;
        bool prepared = false;
        bool halted = false;
        int cand_version = -1;
        std::vector<bool> class_ok; //!< per class (false when unused)
        std::vector<bool> switched; //!< per node
        std::unique_ptr<deploy::CohortPlanner> planner;
    };

    Fleet(const FleetConfig &cfg, ResolvedFleet fleet)
        : FrontEnd("fleet", "requests", static_cast<int>(cfg.models.size()),
                   nodeSpecs(fleet), cfg.ram_fraction),
          cfg_(cfg), fleet_(std::move(fleet)),
          run_span_("fleet_run",
                    {{"nodes", std::to_string(fleet_.nodes.size())},
                     {"models", std::to_string(cfg.models.size())},
                     {"classes", std::to_string(fleet_.classes.size())}}),
          n_nodes_(static_cast<int>(fleet_.nodes.size())),
          n_classes_(static_cast<int>(fleet_.classes.size())),
          placement_rank_labels_(cfg.models.size()),
          insts_by_nm_(fleet_.nodes.size() * cfg.models.size()),
          serving_nodes_(cfg.models.size(), 0),
          queues_(insts_by_nm_.size()),
          failed_(fleet_.nodes.size(), false),
          quarantined_(fleet_.nodes.size(), false),
          group_alerts_(fleet_.groups.size()),
          ro_states_(cfg.rollouts.size()), ro_stats_(cfg.rollouts.size())
    {
        // ------------------------------------------------------------
        // Builds: calibrated engine ladders once per (class, model),
        // shared read-only by every node of the class. One timing cache
        // per class so rebuilds within a class stay warm.
        // ------------------------------------------------------------
        for (const DeviceClass &dc : fleet_.classes)
            class_specs_.push_back(dc.spec);
        std::vector<core::TimingCache> caches(fleet_.classes.size());
        // versions[m]: generation list; index 0 is the incumbent.
        for (int m = 0; m < n_models_; m++)
            versions_[static_cast<std::size_t>(m)].push_back(
                buildVersion(m, cfg.build_id, &caches, nullptr));

        // ------------------------------------------------------------
        // Placement: rank classes (capability vs calibrated — F4/F5
        // make these disagree) and fill nodes in rank order up to each
        // model's nodes_pct, bounded by per-node context RAM.
        // ------------------------------------------------------------
        std::vector<std::vector<bool>> serves(cfg.models.size());
        for (int m = 0; m < n_models_; m++) {
            const auto mi = static_cast<std::size_t>(m);
            std::vector<double> svc1;
            for (const serve::EngineSet &set : versions_[mi][0].sets)
                svc1.push_back(set.service_s.front());
            auto rank = rankClasses(cfg.placement, fleet_.classes, svc1,
                                    cfg.models[mi].precision);
            for (int c : rank)
                placement_rank_labels_[mi].push_back(
                    fleet_.classes[static_cast<std::size_t>(c)].label());
            serves[mi] = selectNodes(fleet_, rank, cfg.models[mi].nodes_pct);
        }

        // Instances, node-major then model order, placed through the
        // serve InstancePool with each node as a device: the per-node
        // RAM budget bounds how many contexts a node can actually host.
        std::vector<serve::Instance> &instances = pool_.instances();
        for (int node = 0; node < n_nodes_; node++) {
            const int c = fleet_.nodes[static_cast<std::size_t>(node)]
                              .dev_class;
            for (int m = 0; m < n_models_; m++) {
                const auto mi = static_cast<std::size_t>(m);
                if (!serves[mi][static_cast<std::size_t>(node)])
                    continue;
                const std::size_t first = instances.size();
                pool_.place(m, node,
                            versions_[mi][0]
                                .sets[static_cast<std::size_t>(c)]
                                .maxFootprintBytes(),
                            cfg.models[mi].instances_per_node, c);
                for (std::size_t i = first; i < instances.size(); i++)
                    insts_by_nm_[nmSlot(node, m)].push_back(
                        static_cast<int>(i));
            }
        }
        next_obs_.assign(instances.size(), 0);

        // ------------------------------------------------------------
        // Routing rings: one per model over the nodes actually hosting
        // an instance of it.
        // ------------------------------------------------------------
        for (int m = 0; m < n_models_; m++) {
            rings_.emplace_back(cfg.seed, cfg.vnodes);
            std::vector<int> members;
            for (int node = 0; node < n_nodes_; node++)
                if (!insts_by_nm_[nmSlot(node, m)].empty())
                    members.push_back(node);
            rings_.back().reset(members);
            serving_nodes_[static_cast<std::size_t>(m)] =
                static_cast<int>(members.size());
            if (members.empty())
                warn("EdgeFleet: model '",
                     cfg.models[static_cast<std::size_t>(m)].model,
                     "' placed on no node; its traffic will be shed");
        }

        requests_ = loadRequests(cfg.models, cfg.duration_s, cfg.seed);

        // ------------------------------------------------------------
        // Phase 1 setup: per-(node, model) queues and batch timeouts;
        // per-node burn-rate SLO trackers fed by control-plane-observable
        // outcomes (sheds and predicted deadline misses) roll up
        // fleet-wide and drive quarantine.
        // ------------------------------------------------------------
        setQueues(cfg.models, queues_.size());
        for (const FleetNode &fn : fleet_.nodes)
            slo_.addLane(fn.name);
        for (const FailureSpec &fs : cfg.failures) {
            events_.push(fs.fail_s, Event::kFail, fs.node);
            if (fs.rejoin_s >= 0.0)
                events_.push(fs.rejoin_s, Event::kRejoin, fs.node);
        }
        for (std::size_t ro = 0; ro < cfg.rollouts.size(); ro++) {
            const RolloutSpec &spec = cfg.rollouts[ro];
            ro_states_[ro].model = modelIndex(cfg, spec.model);
            ro_stats_[ro].model = spec.model;
            ro_stats_[ro].candidate_build_id = spec.candidate_build_id;
            for (std::size_t s = 0; s < spec.stages.size(); s++)
                events_.push(spec.stages[s].t_s, Event::kStage,
                             static_cast<int>(ro),
                             static_cast<std::int64_t>(s));
        }
    }

    // Phase 1 — the fleet control loop.
    void onEvent(const Event &e) override
    {
        switch (e.kind) {
          case Event::kArrival: {
              serve::Request &r = requests_[static_cast<std::size_t>(e.req)];
              const int node = route(r.model, r.id, e.t);
              if (node < 0)
                  return;
              if (cfg_.admission_control &&
                  sojournAt(node, r.model, e.t) * 1e3 > r.slo_ms) {
                  r.outcome = serve::Outcome::kShed;
                  trackerObserve(node, e.t, true);
                  return;
              }
              enqueue(node, r.model, r.id, e.t);
              return;
          }
          case Event::kTimeout:
              tryDispatch(e.target / n_models_, e.target % n_models_, e.t);
              return;
          case Event::kPredFree:
              observePredicted(e);
              return;
          case Event::kFail: {
              const auto ni = static_cast<std::size_t>(e.target);
              if (failed_[ni])
                  return;
              failed_[ni] = true;
              const auto [moved, remap] = removeAndReroute(e.target, e.t);
              logEvent(e.t, e.target, "fail", "", moved, remap);
              return;
          }
          case Event::kRejoin: {
              const auto ni = static_cast<std::size_t>(e.target);
              if (!failed_[ni])
                  return;
              failed_[ni] = false;
              logEvent(e.t, e.target, "rejoin", "", 0,
                       quarantined_[ni] ? 0.0 : remapRings(e.target, true));
              return;
          }
          case Event::kStage:
              runStage(e);
              return;
          default: // serve hot-swap kinds: never pushed here
              return;
        }
    }

    std::size_t units() const override { return requests_.size(); }

    std::size_t nmSlot(int node, int m) const
    {
        return static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(n_models_) +
               static_cast<std::size_t>(m);
    }

    // Build one generation of model m for every class in `class_mask`
    // (null = all), with one timing cache per class (null = none).
    serve::ModelVersion buildVersion(int m, std::uint64_t build_id,
                                     std::vector<core::TimingCache> *caches,
                                     const std::vector<bool> *class_mask)
    {
        const auto &mc = cfg_.models[static_cast<std::size_t>(m)];
        EDGERT_SPAN("fleet_build",
                    {{"model", mc.model}, {"build", std::to_string(build_id)}});
        return serve::buildVersion(
            {mc.model, mc.precision, mc.calibration_seed, build_id,
             mc.batching.max_batch},
            class_specs_, class_mask, [&](std::size_t c) {
                return caches ? &(*caches)[c] : nullptr;
            });
    }

    // Predicted sojourn of a model-m request arriving at `node` now.
    double sojournAt(int node, int m, double t)
    {
        const auto &q = queues_[nmSlot(node, m)];
        return serve::predictSojournSeconds(
            insts_by_nm_[nmSlot(node, m)], pool_.instances(), versions_,
            batchers_[static_cast<std::size_t>(m)].policy(),
            static_cast<int>(q.size()), t, q.rateHz(), sojourn_scratch_);
    }

    void tryDispatch(int node, int m, double t)
    {
        if (failed_[static_cast<std::size_t>(node)] ||
            quarantined_[static_cast<std::size_t>(node)])
            return;
        const auto slot = nmSlot(node, m);
        const std::vector<serve::Instance> &instances = pool_.instances();
        // Strictly predicted-free instances of this (node, model),
        // earliest first (ties: lowest index).
        auto pick = [&](double now) {
            int best = -1;
            for (int idx : insts_by_nm_[slot]) {
                const double free_s =
                    instances[static_cast<std::size_t>(idx)].predicted_free_s;
                if (free_s <= now &&
                    (best < 0 ||
                     free_s <
                         instances[static_cast<std::size_t>(best)]
                             .predicted_free_s))
                    best = idx;
            }
            return best;
        };
        cut(queues_[slot], &serve::RequestQueue::oldestArrivalSeconds, m,
            slot, t, pick);
    }

    // Route request `id` of model m: the ring's owner of its key, or the
    // least predicted sojourn among the key's successors. The chosen
    // queue observes the arrival. Returns the node, or -1 with the
    // request shed when no node serves m.
    int route(int m, std::int64_t id, double t)
    {
        HashRing &ring = rings_[static_cast<std::size_t>(m)];
        if (ring.empty()) {
            requests_[static_cast<std::size_t>(id)].outcome =
                serve::Outcome::kShed;
            return -1;
        }
        std::uint64_t key = ring.keyFor(id);
        int node = -1;
        if (cfg_.route_policy == RoutePolicy::kHash) {
            node = ring.route(key);
        } else {
            double best = 0.0;
            ring.successors(key, cfg_.sojourn_choices, candidates_);
            for (int cand : candidates_) {
                double est = sojournAt(cand, m, t);
                if (node < 0 || est < best || (est == best && cand < node)) {
                    node = cand;
                    best = est;
                }
            }
        }
        queues_[nmSlot(node, m)].observeArrival(t);
        return node;
    }

    void enqueue(int node, int m, std::int64_t id, double t)
    {
        queues_[nmSlot(node, m)].push(id, t);
        tryDispatch(node, m, t);
    }

    // Add `node` to (join) every ring of a model it hosts, or remove it
    // from every ring that holds it. Returns the mean share of key space
    // that moved.
    double remapRings(int node, bool join)
    {
        double remap_sum = 0.0;
        int remap_n = 0;
        for (int m = 0; m < n_models_; m++) {
            HashRing &ring = rings_[static_cast<std::size_t>(m)];
            if (join ? insts_by_nm_[nmSlot(node, m)].empty()
                     : !ring.contains(node))
                continue;
            const HashRing before = ring;
            if (join)
                ring.add(node);
            else
                ring.remove(node);
            remap_sum += remapPct(before, ring, kRemapProbes);
            remap_n++;
        }
        return remap_n > 0 ? remap_sum / static_cast<double>(remap_n) : 0.0;
    }

    // Remove a node from every ring and re-route its queued requests
    // (in-flight dispatches stay planned and drain in the replay —
    // nothing is dropped). A request admitted once is never shed by a
    // membership change, so re-routes skip admission. A model's routing
    // reads only its own ring, so every ring changes first. Returns
    // (rerouted, remap_pct).
    std::pair<std::int64_t, double> removeAndReroute(int node, double t)
    {
        const double remap = remapRings(node, false);
        std::int64_t moved = 0;
        std::vector<std::int64_t> ids;
        for (int m = 0; m < n_models_; m++) {
            auto &q = queues_[nmSlot(node, m)];
            armed_for_[nmSlot(node, m)] = -1;
            if (q.empty())
                continue;
            ids.clear();
            q.cut(static_cast<int>(q.size()), ids);
            for (std::int64_t id : ids) {
                moved++;
                if (int to = route(m, id, t); to >= 0)
                    enqueue(to, m, id, t);
            }
        }
        return {moved, remap};
    }

    // Append one membership event to the report's log.
    void logEvent(double t, int node, const char *kind, const char *reason,
                  std::int64_t moved, double remap)
    {
        membership_.push_back(FleetEvent{
            t, node, fleet_.nodes[static_cast<std::size_t>(node)].name, kind,
            reason, moved, remap});
    }

    void quarantineNode(int node, const char *reason, double t)
    {
        quarantined_[static_cast<std::size_t>(node)] = true;
        const auto [moved, remap] = removeAndReroute(node, t);
        logEvent(t, node, "quarantine", reason, moved, remap);
        warn("EdgeFleet: quarantined node ",
             fleet_.nodes[static_cast<std::size_t>(node)].name, " at t=", t,
             "s (", reason, "), rerouted ", moved, " queued requests");
    }

    void trackerObserve(int node, double t, bool bad)
    {
        watch::Alert a = slo_.observe(node, t, bad);
        if (a.t_s < 0.0)
            return; // no tier transition
        const FleetNode &fn = fleet_.nodes[static_cast<std::size_t>(node)];
        group_alerts_[static_cast<std::size_t>(fn.group)].add(a);
        if (a.tier == watch::Alert::kPage && cfg_.quarantine_on_page &&
            !quarantined_[static_cast<std::size_t>(node)] &&
            !failed_[static_cast<std::size_t>(node)])
            quarantineNode(node, "slo_page", t);
    }

    // Prepare a rollout at its first executed stage: build the candidate
    // per serving class (no timing-cache reuse, so the rebuild drifts
    // naturally per F2/F6), judge each class with the DriftGate, and
    // freeze the cohort draw over the nodes eligible right now.
    void prepareRollout(std::size_t ro, double t)
    {
        const RolloutSpec &spec = cfg_.rollouts[ro];
        RolloutState &st = ro_states_[ro];
        const int m = st.model;
        const auto mi = static_cast<std::size_t>(m);
        EDGERT_SPAN("fleet_rollout",
                    {{"model", spec.model},
                     {"build", std::to_string(spec.candidate_build_id)}});
        std::vector<bool> class_mask(static_cast<std::size_t>(n_classes_),
                                     false);
        for (int node = 0; node < n_nodes_; node++)
            if (!insts_by_nm_[nmSlot(node, m)].empty())
                class_mask[static_cast<std::size_t>(
                    fleet_.nodes[static_cast<std::size_t>(node)].dev_class)] =
                    true;
        serve::ModelVersion cand =
            buildVersion(m, spec.candidate_build_id, nullptr, &class_mask);
        deploy::DriftGate gate(spec.gate);
        st.class_ok.assign(static_cast<std::size_t>(n_classes_), false);
        for (int c = 0; c < n_classes_; c++) {
            const auto ci = static_cast<std::size_t>(c);
            if (!class_mask[ci])
                continue;
            deploy::DriftVerdict v =
                gate.evaluate(versions_[mi][0].sets[ci].engines.front(),
                              cand.sets[ci].engines.front());
            st.class_ok[ci] = v.accepted;
            ClassVerdictStats cs;
            cs.dev_class = fleet_.classes[ci].label();
            cs.accepted = v.accepted;
            cs.reason = v.reason;
            cs.disagreement_pct = v.disagreement_pct;
            cs.kernel_remap_pct = v.kernel_remap_pct;
            ro_stats_[ro].verdicts.push_back(std::move(cs));
        }
        versions_[mi].push_back(std::move(cand));
        st.cand_version = static_cast<int>(versions_[mi].size()) - 1;
        std::vector<int> eligible;
        for (int node = 0; node < n_nodes_; node++)
            if (!insts_by_nm_[nmSlot(node, m)].empty() &&
                !quarantined_[static_cast<std::size_t>(node)] &&
                !failed_[static_cast<std::size_t>(node)])
                eligible.push_back(node);
        st.planner = std::make_unique<deploy::CohortPlanner>(
            eligible, mix64(hashCombine(
                          hashCombine(cfg_.seed, hashString("rollout")),
                          static_cast<std::uint64_t>(ro))));
        st.switched.assign(static_cast<std::size_t>(n_nodes_), false);
        st.prepared = true;
        inform("EdgeFleet: rollout of '", spec.model, "' build ",
               spec.candidate_build_id, " prepared at t=", t, "s (",
               st.planner->memberCount(), " eligible nodes)");
    }

    // Predicted completion of an instance's next unobserved dispatch:
    // feed each request's predicted SLO verdict to the node's burn-rate
    // tracker (the control plane cannot see measured latencies — those
    // exist only after the replay). A page quarantines the node and
    // reroutes its queue, which plans only on other instances; the ids
    // are read in place, by index, all the same.
    void observePredicted(const Event &e)
    {
        auto ii = static_cast<std::size_t>(e.target);
        serve::Instance &inst = pool_.instances()[ii];
        const serve::PlannedDispatch &pd = inst.plan[next_obs_[ii]++];
        const std::size_t first = pd.first_id;
        const auto batch = static_cast<std::size_t>(pd.batch);
        for (std::size_t j = first; j < first + batch; j++) {
            const serve::Request &r =
                requests_[static_cast<std::size_t>(inst.ids[j])];
            bool bad = (e.t - r.arrival_s) * 1e3 > r.slo_ms;
            trackerObserve(inst.device, e.t, bad);
        }
        tryDispatch(inst.device, inst.model, e.t);
    }

    void runStage(const Event &e)
    {
        auto ro = static_cast<std::size_t>(e.target);
        const RolloutSpec &spec = cfg_.rollouts[ro];
        RolloutState &st = ro_states_[ro];
        const RolloutStage &stage =
            spec.stages[static_cast<std::size_t>(e.req)];
        RolloutStageStats ss;
        ss.t_s = stage.t_s;
        ss.pct = stage.pct;
        if (st.halted) {
            // An earlier stage quarantined nodes: the canary absorbed
            // the bad build; leave the rest of the fleet on the
            // incumbent.
            ro_stats_[ro].stages.push_back(ss);
            return;
        }
        if (!st.prepared)
            prepareRollout(ro, e.t);
        ss.executed = true;
        auto cohort = st.planner->cohort(stage.pct);
        ss.cohort = static_cast<int>(cohort.size());
        for (int node : cohort) {
            const auto ni = static_cast<std::size_t>(node);
            if (st.switched[ni] || quarantined_[ni] || failed_[ni])
                continue;
            int c = fleet_.nodes[ni].dev_class;
            if (st.class_ok[static_cast<std::size_t>(c)]) {
                for (int idx : insts_by_nm_[nmSlot(node, st.model)])
                    pool_.instances()[static_cast<std::size_t>(idx)].version =
                        st.cand_version;
                st.switched[ni] = true;
                ss.switched++;
                tryDispatch(node, st.model, e.t);
            } else {
                quarantineNode(node, "drift_gate_reject", e.t);
                ss.quarantined++;
            }
        }
        if (ss.quarantined > 0) {
            st.halted = true;
            ro_stats_[ro].halted = true;
        }
        ro_stats_[ro].stages.push_back(ss);
    }

    const FleetConfig &cfg_;
    const ResolvedFleet fleet_;
    obs::ScopedSpan run_span_;
    const int n_nodes_;
    const int n_classes_;
    std::vector<gpusim::DeviceSpec> class_specs_;
    std::vector<std::vector<std::string>> placement_rank_labels_;
    std::vector<std::vector<int>> insts_by_nm_; //!< per (node, model)
    /** Per instance: the next plan entry whose predicted completion
     *  is unobserved. */
    std::vector<std::size_t> next_obs_;
    std::vector<HashRing> rings_; //!< per model
    std::vector<int> serving_nodes_;
    std::vector<serve::Request> requests_;
    std::vector<serve::RequestQueue> queues_; //!< per (node, model)
    std::vector<bool> failed_;
    std::vector<bool> quarantined_;
    watch::SloTrackerSet slo_; //!< lane = node id
    std::vector<watch::AlertCounts> group_alerts_;
    std::vector<RolloutState> ro_states_;
    std::vector<RolloutStats> ro_stats_;
    std::vector<FleetEvent> membership_; //!< the report's event log
    // Scratch the per-arrival path reuses, so routing and admission
    // allocate nothing per request.
    std::vector<double> sojourn_scratch_;
    std::vector<int> candidates_;
};

} // namespace

std::unique_ptr<serve::FrontEnd<FleetReport>>
startFleet(const FleetConfig &cfg)
{
    return std::make_unique<Fleet>(cfg);
}

FleetReport
runFleet(const FleetConfig &cfg)
{
    const auto fleet = startFleet(cfg);
    fleet->controlUntil(std::numeric_limits<double>::infinity());
    return fleet->finish();
}

std::string
FleetReport::toJson() const
{
    using Layout = JsonWriter::Layout;
    JsonWriter w;
    w.beginObject();
    w.field("seed", seed);
    w.field("duration_s", duration_s);
    w.field("route_policy", route_policy);
    w.field("placement", placement);
    w.field("vnodes", vnodes);
    w.field("nodes", nodes);
    w.field("offered", offered);
    w.field("completed", completed);
    w.field("shed", shed);
    w.field("unaccounted", unaccounted);
    w.field("aggregate_offered_qps", aggregate_offered_qps);
    writeJson(w, "latency_ms");
    w.key("classes").beginArray();
    for (const FleetClassStats &c : classes) {
        w.beginObject(Layout::Inline);
        w.field("label", c.label);
        w.field("nodes", c.nodes);
        w.key("svc1_ms").beginArray();
        for (double ms : c.svc1_ms)
            w.value(ms);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("models").beginArray();
    for (const FleetModelStats &s : models) {
        w.beginObject();
        w.field("model", s.model);
        w.field("slo_ms", s.slo_ms);
        w.field("serving_nodes", s.serving_nodes);
        w.key("placement_rank").beginArray(Layout::Inline);
        for (const std::string &label : s.placement_rank)
            w.value(label);
        w.endArray();
        w.field("offered", s.offered);
        w.field("offered_qps", s.offered_qps);
        w.field("shed", s.shed);
        w.field("completed", s.completed);
        w.field("slo_violations", s.slo_violations);
        w.field("attainment_pct", s.attainment_pct);
        w.field("batches", s.batches);
        w.field("mean_batch", s.mean_batch);
        w.field("goodput_qps", s.goodput_qps);
        s.writeJson(w, "latency_ms");
        w.endObject();
    }
    w.endArray();
    w.key("groups").beginArray();
    for (const FleetGroupStats &g : groups) {
        w.beginObject(Layout::Inline);
        w.field("group", g.group);
        w.field("class", g.dev_class);
        w.field("nodes", g.nodes);
        w.field("quarantined", g.quarantined);
        w.field("failed", g.failed);
        w.field("completed", g.completed);
        w.field("mean_ms", g.mean_ms);
        w.field("p99_ms", g.p99_ms);
        w.endObject();
    }
    w.endArray();
    w.key("events").beginArray();
    for (const FleetEvent &e : events) {
        w.beginObject(Layout::Inline);
        w.field("t_s", e.t_s);
        w.field("node", e.node);
        w.field("name", e.node_name);
        w.field("kind", e.kind);
        w.field("reason", e.reason);
        w.field("rerouted", e.rerouted);
        w.field("remap_pct", e.remap_pct);
        w.endObject();
    }
    w.endArray();
    w.key("rollouts").beginArray();
    for (const RolloutStats &ro : rollouts) {
        w.beginObject();
        w.field("model", ro.model);
        w.field("candidate_build_id", ro.candidate_build_id);
        w.field("halted", ro.halted);
        w.key("verdicts").beginArray();
        for (const ClassVerdictStats &cs : ro.verdicts) {
            w.beginObject(Layout::Inline);
            w.field("class", cs.dev_class);
            w.field("accepted", cs.accepted);
            w.field("reason", cs.reason);
            w.field("disagreement_pct", cs.disagreement_pct);
            w.field("kernel_remap_pct", cs.kernel_remap_pct);
            w.endObject();
        }
        w.endArray();
        w.key("stages").beginArray();
        for (const RolloutStageStats &ss : ro.stages) {
            w.beginObject(Layout::Inline);
            w.field("t_s", ss.t_s);
            w.field("pct", ss.pct);
            w.field("executed", ss.executed);
            w.field("cohort", ss.cohort);
            w.field("switched", ss.switched);
            w.field("quarantined", ss.quarantined);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("alerts").beginObject();
    alerts.writeFields(w);
    w.key("by_group").beginArray();
    for (const auto &[group, c] : alerts_by_group) {
        w.beginObject(Layout::Inline);
        w.field("group", group);
        w.field("pages", c.pages);
        w.field("warns", c.warns);
        w.field("clears", c.clears);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

FleetModelConfig
parseModelSpec(const std::string &spec)
{
    FleetModelConfig mc;
    mc.model = serve::splitModelSpec(
        spec, mc.precision,
        [&](const std::string &k, const std::string &v) {
            if (k == "nodes_pct") {
                mc.nodes_pct = optionNumber(k, v);
                return true;
            }
            return serve::applyEngineKey(k, v, mc.batching,
                                         mc.instances_per_node,
                                         mc.calibration_seed) ||
                   serve::applyTrafficKey(k, v, mc.arrivals,
                                          mc.slo_ms);
        });
    return mc;
}

} // namespace edgert::fleet

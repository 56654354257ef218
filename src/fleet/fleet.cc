#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
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

} // namespace

FleetReport
runFleet(const FleetConfig &cfg)
{
    // ------------------------------------------------------------
    // Validation and fleet resolution.
    // ------------------------------------------------------------
    serve::validateModels("EdgeFleet", cfg.models, cfg.duration_s);
    if (cfg.vnodes < 1)
        fatal("fleet vnodes must be >= 1 (got ", cfg.vnodes, ")");
    if (cfg.sojourn_choices < 1)
        fatal("fleet sojourn_choices must be >= 1 (got ",
              cfg.sojourn_choices, ")");

    ResolvedFleet fleet = resolveFleet(cfg.groups);
    const int n_nodes = static_cast<int>(fleet.nodes.size());
    const int n_models = static_cast<int>(cfg.models.size());
    const int n_classes = static_cast<int>(fleet.classes.size());

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

    auto modelIndex = [&](const std::string &name) {
        for (int m = 0; m < n_models; m++)
            if (cfg.models[static_cast<std::size_t>(m)].model ==
                name)
                return m;
        fatal("unknown fleet model '", name, "'");
    };
    for (const RolloutSpec &ro : cfg.rollouts) {
        modelIndex(ro.model);
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

    EDGERT_SPAN("fleet_run",
                {{"nodes", std::to_string(n_nodes)},
                 {"models", std::to_string(n_models)},
                 {"classes", std::to_string(n_classes)}});

    // ------------------------------------------------------------
    // Builds: calibrated engine ladders once per (class, model),
    // shared read-only by every node of the class. One timing cache
    // per class so rebuilds within a class stay warm.
    // ------------------------------------------------------------
    std::vector<core::TimingCache> caches(
        static_cast<std::size_t>(n_classes));

    // Build one generation of model m for every class in
    // `class_mask` (null = all).
    auto buildVersion = [&](int m, std::uint64_t build_id,
                            bool use_cache,
                            const std::vector<bool> *class_mask) {
        const auto &mc = cfg.models[static_cast<std::size_t>(m)];
        EDGERT_SPAN("fleet_build",
                    {{"model", mc.model},
                     {"build", std::to_string(build_id)}});
        serve::ModelVersion ver;
        ver.build_id = build_id;
        for (int c = 0; c < n_classes; c++) {
            const auto ci = static_cast<std::size_t>(c);
            ver.sets.push_back(
                !class_mask || (*class_mask)[ci]
                    ? serve::buildLadder(
                          fleet.classes[ci].spec,
                          {mc.model, mc.precision, mc.calibration_seed,
                           build_id, mc.batching.max_batch},
                          use_cache ? &caches[ci] : nullptr)
                    : serve::EngineSet{});
        }
        return ver;
    };

    // versions[m]: generation list; index 0 is the incumbent.
    serve::ModelVersions versions(static_cast<std::size_t>(n_models));
    for (int m = 0; m < n_models; m++)
        versions[static_cast<std::size_t>(m)].push_back(
            buildVersion(m, cfg.build_id, true, nullptr));

    // ------------------------------------------------------------
    // Placement: rank classes (capability vs calibrated — F4/F5
    // make these disagree) and fill nodes in rank order up to each
    // model's nodes_pct, bounded by per-node context RAM.
    // ------------------------------------------------------------
    std::vector<std::vector<std::string>> placement_rank_labels(
        static_cast<std::size_t>(n_models));
    std::vector<std::vector<bool>> serves(
        static_cast<std::size_t>(n_models));
    for (int m = 0; m < n_models; m++) {
        std::vector<double> svc1;
        for (int c = 0; c < n_classes; c++)
            svc1.push_back(versions[static_cast<std::size_t>(m)][0]
                               .sets[static_cast<std::size_t>(c)]
                               .service_s.front());
        auto rank = rankClasses(
            cfg.placement, fleet.classes, svc1,
            cfg.models[static_cast<std::size_t>(m)].precision);
        for (int c : rank)
            placement_rank_labels[static_cast<std::size_t>(m)]
                .push_back(
                    fleet.classes[static_cast<std::size_t>(c)]
                        .label());
        serves[static_cast<std::size_t>(m)] = selectNodes(
            fleet, rank,
            cfg.models[static_cast<std::size_t>(m)].nodes_pct);
    }

    // Instances, node-major then model order, placed through the
    // serve InstancePool with each node as a device: the per-node
    // RAM budget bounds how many contexts a node can actually host.
    std::vector<gpusim::DeviceSpec> node_specs;
    for (int node = 0; node < n_nodes; node++)
        node_specs.push_back(fleet.specOf(node));
    serve::InstancePool pool(node_specs, cfg.ram_fraction);
    std::vector<serve::Instance> &instances = pool.instances();
    std::vector<std::vector<int>> insts_by_nm(
        static_cast<std::size_t>(n_nodes) *
        static_cast<std::size_t>(n_models));
    auto nmSlot = [&](int node, int m) {
        return static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(n_models) +
               static_cast<std::size_t>(m);
    };
    for (int node = 0; node < n_nodes; node++) {
        const int c = fleet.nodes[static_cast<std::size_t>(node)]
                          .dev_class;
        for (int m = 0; m < n_models; m++) {
            if (!serves[static_cast<std::size_t>(m)]
                       [static_cast<std::size_t>(node)])
                continue;
            const std::size_t first = instances.size();
            pool.place(m, node,
                       versions[static_cast<std::size_t>(m)][0]
                           .sets[static_cast<std::size_t>(c)]
                           .maxFootprintBytes(),
                       cfg.models[static_cast<std::size_t>(m)]
                           .instances_per_node,
                       c);
            for (std::size_t i = first; i < instances.size(); i++)
                insts_by_nm[nmSlot(node, m)].push_back(
                    static_cast<int>(i));
        }
    }
    // Per instance: the next plan entry whose predicted completion is
    // unobserved.
    std::vector<std::size_t> next_obs(instances.size(), 0);

    // ------------------------------------------------------------
    // Routing rings: one per model over the nodes actually hosting
    // an instance of it.
    // ------------------------------------------------------------
    std::vector<HashRing> rings;
    std::vector<int> serving_nodes(static_cast<std::size_t>(n_models),
                                   0);
    for (int m = 0; m < n_models; m++) {
        rings.emplace_back(cfg.seed, cfg.vnodes);
        std::vector<int> members;
        for (int node = 0; node < n_nodes; node++)
            if (!insts_by_nm[nmSlot(node, m)].empty())
                members.push_back(node);
        rings.back().reset(members);
        serving_nodes[static_cast<std::size_t>(m)] =
            static_cast<int>(members.size());
        if (members.empty())
            warn("EdgeFleet: model '",
                 cfg.models[static_cast<std::size_t>(m)].model,
                 "' placed on no node; its traffic will be shed");
    }

    // Workload: one id-ordered table of fleet-wide requests.
    std::vector<serve::TrafficSpec> traffic;
    for (const auto &mc : cfg.models)
        traffic.push_back({mc.arrivals, mc.slo_ms});
    std::vector<serve::Request> requests;
    {
        EDGERT_SPAN("fleet_workload",
                    {{"models", std::to_string(n_models)}});
        requests =
            serve::generateRequests(traffic, cfg.duration_s, cfg.seed);
    }

    // ------------------------------------------------------------
    // Phase 1 — fleet control loop. Per-(node, model) queues and
    // batch timeouts; per-node burn-rate SLO trackers fed by
    // control-plane-observable outcomes (sheds and predicted
    // deadline misses) roll up fleet-wide and drive quarantine.
    // ------------------------------------------------------------
    std::vector<serve::RequestQueue> queues(
        static_cast<std::size_t>(n_nodes) *
        static_cast<std::size_t>(n_models));
    std::vector<serve::DynamicBatcher> batchers;
    for (const auto &mc : cfg.models)
        batchers.emplace_back(mc.batching);
    std::vector<serve::BatchTimeout> timeouts(queues.size());
    for (std::size_t slot = 0; slot < timeouts.size(); slot++)
        timeouts[slot].target = static_cast<int>(slot);

    std::vector<bool> failed(static_cast<std::size_t>(n_nodes),
                             false);
    std::vector<bool> quarantined(static_cast<std::size_t>(n_nodes),
                                  false);

    watch::SloTrackerSet slo; // lane = node id
    for (const FleetNode &fn : fleet.nodes)
        slo.addLane(fn.name);
    std::vector<watch::AlertCounts> group_alerts(fleet.groups.size());

    serve::EventQueue evq(serve::requestArrivals(requests));
    for (const FailureSpec &fs : cfg.failures) {
        evq.push(fs.fail_s, Event::kFail, fs.node);
        if (fs.rejoin_s >= 0.0)
            evq.push(fs.rejoin_s, Event::kRejoin, fs.node);
    }
    std::vector<RolloutState> ro_states(cfg.rollouts.size());
    std::vector<RolloutStats> ro_stats(cfg.rollouts.size());
    for (std::size_t ro = 0; ro < cfg.rollouts.size(); ro++) {
        const RolloutSpec &spec = cfg.rollouts[ro];
        ro_states[ro].model = modelIndex(spec.model);
        ro_stats[ro].model = spec.model;
        ro_stats[ro].candidate_build_id = spec.candidate_build_id;
        for (std::size_t s = 0; s < spec.stages.size(); s++)
            evq.push(spec.stages[s].t_s, Event::kStage,
                     static_cast<int>(ro), static_cast<std::int64_t>(s));
    }

    std::vector<FleetEvent> events;

    // Predicted sojourn of a model-m request arriving at `node` now.
    auto sojournAt = [&](int node, int m, double t) {
        const auto &q = queues[nmSlot(node, m)];
        return serve::predictSojournSeconds(
            insts_by_nm[nmSlot(node, m)], instances, versions,
            batchers[static_cast<std::size_t>(m)].policy(),
            static_cast<int>(q.size()), t, q.rateHz());
    };

    auto tryDispatch = [&](int node, int m, double t) {
        if (failed[static_cast<std::size_t>(node)] ||
            quarantined[static_cast<std::size_t>(node)])
            return;
        const auto slot = nmSlot(node, m);
        // Strictly predicted-free instances of this (node, model),
        // earliest first (ties: lowest index).
        auto pick = [&](double now) {
            int best = -1;
            for (int idx : insts_by_nm[slot]) {
                const double free_s =
                    instances[static_cast<std::size_t>(idx)]
                        .predicted_free_s;
                if (free_s <= now &&
                    (best < 0 ||
                     free_s < instances[static_cast<std::size_t>(best)]
                                  .predicted_free_s))
                    best = idx;
            }
            return best;
        };
        serve::cutBatches(
            queues[slot], &serve::RequestQueue::oldestArrivalSeconds,
            batchers[static_cast<std::size_t>(m)], t, versions,
            instances, evq, timeouts[slot], pick,
            [&](const serve::PlannedDispatch &pd, int idx) {
                serve::stampRequests(requests, pd, node, idx);
            });
    };

    // Route request `id` of model m: the ring's owner of its key, or
    // the least predicted sojourn among the key's successors. The
    // chosen queue observes the arrival. Returns the node, or -1 with
    // the request shed when no node serves m.
    auto route = [&](int m, std::int64_t id, double t) {
        HashRing &ring = rings[static_cast<std::size_t>(m)];
        if (ring.empty()) {
            requests[static_cast<std::size_t>(id)].outcome =
                serve::Outcome::kShed;
            return -1;
        }
        std::uint64_t key = ring.keyFor(id);
        int node = -1;
        if (cfg.route_policy == RoutePolicy::kHash) {
            node = ring.route(key);
        } else {
            double best = 0.0;
            for (int cand : ring.successors(key, cfg.sojourn_choices)) {
                double est = sojournAt(cand, m, t);
                if (node < 0 || est < best ||
                    (est == best && cand < node)) {
                    node = cand;
                    best = est;
                }
            }
        }
        queues[nmSlot(node, m)].observeArrival(t);
        return node;
    };

    auto enqueue = [&](int node, int m, std::int64_t id, double t) {
        queues[nmSlot(node, m)].push(id, t);
        tryDispatch(node, m, t);
    };

    // Remove a node from every ring and re-route its queued
    // requests (in-flight dispatches stay planned and drain in the
    // replay — nothing is dropped). A request admitted once is never
    // shed by a membership change, so re-routes skip admission.
    // Returns (rerouted, remap_pct).
    auto removeAndReroute =
        [&](int node, double t) -> std::pair<std::int64_t, double> {
        std::int64_t moved = 0;
        double remap_sum = 0.0;
        int remap_n = 0;
        for (int m = 0; m < n_models; m++) {
            HashRing &ring = rings[static_cast<std::size_t>(m)];
            if (!ring.contains(node))
                continue;
            HashRing before = ring;
            ring.remove(node);
            remap_sum += remapPct(before, ring, kRemapProbes);
            remap_n++;
            auto &q = queues[nmSlot(node, m)];
            timeouts[nmSlot(node, m)].armed_for = -1;
            if (q.empty())
                continue;
            auto ids = q.cut(static_cast<int>(q.size()));
            for (std::int64_t id : ids) {
                moved++;
                if (int to = route(m, id, t); to >= 0)
                    enqueue(to, m, id, t);
            }
        }
        return {moved,
                remap_n > 0 ? remap_sum /
                                  static_cast<double>(remap_n)
                            : 0.0};
    };

    // Append one membership event to the report's log.
    auto logEvent = [&](double t, int node, const char *kind,
                        const char *reason, std::int64_t moved,
                        double remap) {
        events.push_back(FleetEvent{
            t, node, fleet.nodes[static_cast<std::size_t>(node)].name,
            kind, reason, moved, remap});
    };

    auto quarantineNode = [&](int node, const char *reason, double t) {
        quarantined[static_cast<std::size_t>(node)] = true;
        auto [moved, remap] = removeAndReroute(node, t);
        logEvent(t, node, "quarantine", reason, moved, remap);
        warn("EdgeFleet: quarantined node ",
             fleet.nodes[static_cast<std::size_t>(node)].name,
             " at t=", t, "s (", reason, "), rerouted ", moved,
             " queued requests");
    };

    auto trackerObserve = [&](int node, double t, bool bad) {
        watch::Alert a = slo.observe(node, t, bad);
        if (a.t_s < 0.0)
            return; // no tier transition
        const FleetNode &fn =
            fleet.nodes[static_cast<std::size_t>(node)];
        group_alerts[static_cast<std::size_t>(fn.group)].add(a);
        if (a.tier == watch::Alert::kPage &&
            cfg.quarantine_on_page &&
            !quarantined[static_cast<std::size_t>(node)] &&
            !failed[static_cast<std::size_t>(node)])
            quarantineNode(node, "slo_page", t);
    };

    // Prepare a rollout at its first executed stage: build the
    // candidate per serving class (no timing-cache reuse, so the
    // rebuild drifts naturally per F2/F6), judge each class with
    // the DriftGate, and freeze the cohort draw over the nodes
    // eligible right now.
    auto prepareRollout = [&](std::size_t ro, double t) {
        const RolloutSpec &spec = cfg.rollouts[ro];
        RolloutState &st = ro_states[ro];
        const int m = st.model;
        EDGERT_SPAN("fleet_rollout",
                    {{"model", spec.model},
                     {"build",
                      std::to_string(spec.candidate_build_id)}});
        std::vector<bool> class_mask(
            static_cast<std::size_t>(n_classes), false);
        for (int node = 0; node < n_nodes; node++)
            if (!insts_by_nm[nmSlot(node, m)].empty())
                class_mask[static_cast<std::size_t>(
                    fleet.nodes[static_cast<std::size_t>(node)]
                        .dev_class)] = true;
        serve::ModelVersion cand = buildVersion(
            m, spec.candidate_build_id, false, &class_mask);
        deploy::DriftGate gate(spec.gate);
        st.class_ok.assign(static_cast<std::size_t>(n_classes),
                           false);
        for (int c = 0; c < n_classes; c++) {
            if (!class_mask[static_cast<std::size_t>(c)])
                continue;
            const auto &inc =
                versions[static_cast<std::size_t>(m)][0]
                    .sets[static_cast<std::size_t>(c)]
                    .engines.front();
            const auto &cnd =
                cand.sets[static_cast<std::size_t>(c)]
                    .engines.front();
            deploy::DriftVerdict v = gate.evaluate(inc, cnd);
            st.class_ok[static_cast<std::size_t>(c)] = v.accepted;
            ClassVerdictStats cs;
            cs.dev_class =
                fleet.classes[static_cast<std::size_t>(c)].label();
            cs.accepted = v.accepted;
            cs.reason = v.reason;
            cs.disagreement_pct = v.disagreement_pct;
            cs.kernel_remap_pct = v.kernel_remap_pct;
            ro_stats[ro].verdicts.push_back(std::move(cs));
        }
        versions[static_cast<std::size_t>(m)].push_back(
            std::move(cand));
        st.cand_version = static_cast<int>(
                              versions[static_cast<std::size_t>(m)]
                                  .size()) -
                          1;
        std::vector<int> eligible;
        for (int node = 0; node < n_nodes; node++)
            if (!insts_by_nm[nmSlot(node, m)].empty() &&
                !quarantined[static_cast<std::size_t>(node)] &&
                !failed[static_cast<std::size_t>(node)])
                eligible.push_back(node);
        st.planner = std::make_unique<deploy::CohortPlanner>(
            eligible,
            mix64(hashCombine(
                hashCombine(cfg.seed, hashString("rollout")),
                static_cast<std::uint64_t>(ro))));
        st.switched.assign(static_cast<std::size_t>(n_nodes),
                           false);
        st.prepared = true;
        inform("EdgeFleet: rollout of '", spec.model, "' build ",
             spec.candidate_build_id, " prepared at t=", t, "s (",
             st.planner->memberCount(), " eligible nodes)");
    };

    {
        EDGERT_SPAN("fleet_control",
                    {{"requests",
                      std::to_string(requests.size())}});
        while (!evq.empty()) {
            Event e = evq.pop();
            switch (e.kind) {
              case Event::kArrival: {
                  serve::Request &r =
                      requests[static_cast<std::size_t>(e.req)];
                  const int node = route(r.model, r.id, e.t);
                  if (node < 0)
                      break;
                  if (cfg.admission_control &&
                      sojournAt(node, r.model, e.t) * 1e3 > r.slo_ms) {
                      r.outcome = serve::Outcome::kShed;
                      trackerObserve(node, e.t, true);
                      break;
                  }
                  enqueue(node, r.model, r.id, e.t);
                  break;
              }
              case Event::kTimeout: {
                  auto slot = static_cast<std::size_t>(e.target);
                  tryDispatch(
                      static_cast<int>(slot /
                                       static_cast<std::size_t>(
                                           n_models)),
                      static_cast<int>(slot %
                                       static_cast<std::size_t>(
                                           n_models)),
                      e.t);
                  break;
              }
              case Event::kPredFree: {
                  auto ii = static_cast<std::size_t>(e.target);
                  serve::Instance &inst = instances[ii];
                  // Predicted completion of the next unobserved
                  // dispatch: feed each request's predicted SLO
                  // verdict to the node's burn-rate tracker (the
                  // control plane cannot see measured latencies —
                  // those exist only after the replay).
                  std::size_t k = next_obs[ii]++;
                  std::vector<std::int64_t> ids =
                      inst.plan[k].request_ids;
                  for (std::int64_t id : ids) {
                      const serve::Request &r =
                          requests[static_cast<std::size_t>(id)];
                      bool bad =
                          (e.t - r.arrival_s) * 1e3 > r.slo_ms;
                      trackerObserve(inst.device, e.t, bad);
                  }
                  tryDispatch(inst.device, inst.model, e.t);
                  break;
              }
              case Event::kFail: {
                  int node = e.target;
                  if (failed[static_cast<std::size_t>(node)])
                      break;
                  failed[static_cast<std::size_t>(node)] = true;
                  auto [moved, remap] =
                      removeAndReroute(node, e.t);
                  logEvent(e.t, node, "fail", "", moved, remap);
                  break;
              }
              case Event::kRejoin: {
                  int node = e.target;
                  if (!failed[static_cast<std::size_t>(node)])
                      break;
                  failed[static_cast<std::size_t>(node)] = false;
                  double remap_sum = 0.0;
                  int remap_n = 0;
                  if (!quarantined[static_cast<std::size_t>(
                          node)]) {
                      for (int m = 0; m < n_models; m++) {
                          if (insts_by_nm[nmSlot(node, m)].empty())
                              continue;
                          HashRing &ring =
                              rings[static_cast<std::size_t>(m)];
                          HashRing before = ring;
                          ring.add(node);
                          remap_sum += remapPct(before, ring,
                                                kRemapProbes);
                          remap_n++;
                      }
                  }
                  logEvent(e.t, node, "rejoin", "", 0,
                           remap_n > 0 ? remap_sum /
                                             static_cast<double>(remap_n)
                                       : 0.0);
                  break;
              }
              case Event::kStage: {
                  auto ro = static_cast<std::size_t>(e.target);
                  const RolloutSpec &spec = cfg.rollouts[ro];
                  RolloutState &st = ro_states[ro];
                  const RolloutStage &stage =
                      spec.stages[static_cast<std::size_t>(e.req)];
                  RolloutStageStats ss;
                  ss.t_s = stage.t_s;
                  ss.pct = stage.pct;
                  if (st.halted) {
                      // An earlier stage quarantined nodes: the
                      // canary absorbed the bad build; leave the
                      // rest of the fleet on the incumbent.
                      ro_stats[ro].stages.push_back(ss);
                      break;
                  }
                  if (!st.prepared)
                      prepareRollout(ro, e.t);
                  ss.executed = true;
                  auto cohort = st.planner->cohort(stage.pct);
                  ss.cohort = static_cast<int>(cohort.size());
                  for (int node : cohort) {
                      if (st.switched[static_cast<std::size_t>(
                              node)] ||
                          quarantined[static_cast<std::size_t>(
                              node)] ||
                          failed[static_cast<std::size_t>(node)])
                          continue;
                      int c = fleet
                                  .nodes[static_cast<std::size_t>(
                                      node)]
                                  .dev_class;
                      if (st.class_ok[static_cast<std::size_t>(
                              c)]) {
                          for (int idx :
                               insts_by_nm[nmSlot(node, st.model)])
                              instances[static_cast<std::size_t>(idx)]
                                  .version = st.cand_version;
                          st.switched[static_cast<std::size_t>(
                              node)] = true;
                          ss.switched++;
                          tryDispatch(node, st.model, e.t);
                      } else {
                          quarantineNode(node, "drift_gate_reject",
                                         e.t);
                          ss.quarantined++;
                      }
                  }
                  if (ss.quarantined > 0) {
                      st.halted = true;
                      ro_stats[ro].halted = true;
                  }
                  ro_stats[ro].stages.push_back(ss);
                  break;
              }
              default: // serve hot-swap kinds: never pushed here
                  break;
            }
        }
    }

    // ------------------------------------------------------------
    // Phase 2 — execution replay: one GpuSim per node. Per-node
    // registries fold into the global one under a per-group prefix:
    // nodes of a pool merge additively into one
    // "fleet.<group>.gpusim.*" rollup, in node id order. Kernel
    // traces stay off: a 500-node replay would otherwise retain
    // every simulated launch record.
    // ------------------------------------------------------------
    serve::ReplayOptions ro;
    ro.span = "fleet_replay";
    ro.threads = cfg.sim_threads;
    ro.trace_mode = gpusim::TraceMode::kOff;
    for (const FleetNode &fn : fleet.nodes)
        ro.metric_prefixes.push_back(
            "fleet." +
            fleet.groups[static_cast<std::size_t>(fn.group)].name +
            ".");
    serve::replayPlans(node_specs, instances, versions, ro);

    // Fold measured completions back (node-major instance order,
    // then plan order — deterministic).
    serve::FoldCounts folded;
    {
        EDGERT_SPAN("fleet_fold",
                    {{"requests", std::to_string(requests.size())}});
        folded = serve::foldReplay(instances, n_models, requests,
                                   serve::Outcome::kCompleted);
    }

    // ------------------------------------------------------------
    // Report assembly (request-id order).
    // ------------------------------------------------------------
    EDGERT_SPAN("fleet_report", {{"models", std::to_string(n_models)}});
    FleetReport report;
    report.seed = cfg.seed;
    report.duration_s = cfg.duration_s;
    report.route_policy = routePolicyName(cfg.route_policy);
    report.placement = placementPolicyName(cfg.placement);
    report.vnodes = cfg.vnodes;
    report.nodes = n_nodes;

    // One pass over the request table tallies it fleet-wide, by
    // model and by the group of the node that completed the request.
    serve::Tally all;
    std::vector<serve::Tally> by_model(static_cast<std::size_t>(n_models));
    std::vector<serve::Tally> by_group(fleet.groups.size());
    for (const serve::Request &r : requests) {
        all.add(r);
        by_model[static_cast<std::size_t>(r.model)].add(r);
        if (r.outcome == serve::Outcome::kCompleted)
            by_group[static_cast<std::size_t>(
                         fleet.nodes[static_cast<std::size_t>(r.device)]
                             .group)]
                .add(r);
    }
    report.offered = all.offered;
    report.completed = all.completed;
    report.shed = all.shed;
    report.unaccounted = all.offered - all.shed - all.completed;
    report.aggregate_offered_qps =
        static_cast<double>(report.offered) / cfg.duration_s;
    report.summarize(all.latency_ms);

    for (int c = 0; c < n_classes; c++) {
        FleetClassStats cs;
        cs.label =
            fleet.classes[static_cast<std::size_t>(c)].label();
        for (const FleetNode &fn : fleet.nodes)
            if (fn.dev_class == c)
                cs.nodes++;
        for (int m = 0; m < n_models; m++)
            cs.svc1_ms.push_back(
                versions[static_cast<std::size_t>(m)][0]
                    .sets[static_cast<std::size_t>(c)]
                    .service_s.front() *
                1e3);
        report.classes.push_back(std::move(cs));
    }

    for (int m = 0; m < n_models; m++) {
        auto mi = static_cast<std::size_t>(m);
        const auto &mc = cfg.models[mi];
        const serve::Tally &t = by_model[mi];
        FleetModelStats s;
        s.model = mc.model;
        s.slo_ms = mc.slo_ms;
        s.serving_nodes = serving_nodes[mi];
        s.placement_rank = placement_rank_labels[mi];
        s.fill(t, folded, mi, cfg.duration_s);
        s.attainment_pct =
            t.offered > 0 ? 100.0 * static_cast<double>(t.within_slo) /
                                static_cast<double>(t.offered)
                          : 0.0;
        report.models.push_back(std::move(s));
    }

    for (std::size_t g = 0; g < fleet.groups.size(); g++) {
        FleetGroupStats gs;
        gs.group = fleet.groups[g].name;
        for (const FleetNode &fn : fleet.nodes) {
            if (static_cast<std::size_t>(fn.group) != g)
                continue;
            if (gs.nodes == 0)
                gs.dev_class =
                    fleet.classes[static_cast<std::size_t>(
                                      fn.dev_class)]
                        .label();
            gs.nodes++;
            if (quarantined[static_cast<std::size_t>(fn.id)])
                gs.quarantined++;
            if (failed[static_cast<std::size_t>(fn.id)])
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

    report.events = std::move(events);
    report.rollouts = std::move(ro_stats);

    report.alerts = slo.rollup();
    for (std::size_t g = 0; g < group_alerts.size(); g++) {
        const watch::AlertCounts &c = group_alerts[g];
        if (c.pages + c.warns + c.clears > 0)
            report.alerts_by_group.emplace_back(fleet.groups[g].name, c);
    }
    std::sort(report.alerts_by_group.begin(),
              report.alerts_by_group.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    // A handful of fleet-level gauges for the CLI's metric dumps.
    {
        obs::MetricRegistry &reg = obs::MetricRegistry::global();
        reg.gauge("fleet.nodes", {}).set(
            static_cast<double>(n_nodes));
        int nq = 0;
        for (int node = 0; node < n_nodes; node++)
            if (quarantined[static_cast<std::size_t>(node)])
                nq++;
        reg.gauge("fleet.nodes.quarantined", {})
            .set(static_cast<double>(nq));
        for (const FleetModelStats &s : report.models) {
            const obs::Labels ml = {{"model", s.model}};
            reg.gauge("fleet.model.completed", ml)
                .set(static_cast<double>(s.completed));
            reg.gauge("fleet.model.shed", ml)
                .set(static_cast<double>(s.shed));
            reg.gauge("fleet.model.p99_ms", ml).set(s.p99_ms);
        }
    }

    return report;
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

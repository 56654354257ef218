/**
 * @file
 * EdgeFleet end-to-end invariants: same-seed byte-identity (serial
 * and parallel replay), request conservation across node failures,
 * spec parsing, placement ranking and rollout cohort planning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "deploy/cohort.hh"
#include "fleet/fleet.hh"
#include "fleet/placement.hh"
#include "fleet/spec.hh"
#include "obs/metrics.hh"
#include "serve/core.hh"
#include "serve/server.hh"

namespace {

using namespace edgert;

fleet::FleetConfig
smallFleet()
{
    fleet::FleetConfig cfg;
    cfg.groups.push_back(fleet::parseNodeGroup("nx:3"));
    cfg.groups.push_back(fleet::parseNodeGroup("agx:1"));
    fleet::FleetModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 100.0;
    mc.arrivals.qps = 400.0;
    cfg.models.push_back(mc);
    cfg.duration_s = 1.0;
    cfg.seed = 7;
    return cfg;
}

TEST(Fleet, SameSeedByteIdenticalSerialAndParallel)
{
    fleet::FleetConfig cfg = smallFleet();
    fleet::FailureSpec fs;
    fs.node = 1;
    fs.fail_s = 0.3;
    fs.rejoin_s = 0.7;
    cfg.failures.push_back(fs);

    // Report and registry snapshot of one run from a fresh registry.
    // No clock is pinned: the registry holds no host time.
    auto run = [&cfg](int threads) {
        obs::MetricRegistry::global().reset();
        cfg.sim_threads = threads;
        std::string report = fleet::runFleet(cfg).toJson();
        return std::make_pair(report,
                              obs::MetricRegistry::global().toJson());
    };
    auto serial = run(1);
    EXPECT_EQ(serial, run(1));
    auto parallel = run(4);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

// Fleet nodes budget context RAM exactly as serve's InstancePool
// does (a GiB share of the node's RAM). At a ram_fraction where one
// alexnet ladder fits under the GiB rule but not under a 1e9-byte
// rule, every node and the single-device server place one instance.
TEST(Fleet, RamBudgetMatchesServe)
{
    const gpusim::DeviceSpec nx = gpusim::DeviceSpec::xavierNX();
    serve::LadderSpec ladder;
    ladder.model = "alexnet";
    const std::int64_t fp =
        serve::buildLadder(nx, ladder, nullptr).maxFootprintBytes();
    const double ram_fraction =
        0.99 * static_cast<double>(fp) / (nx.ram_gb * 1e9);
    ASSERT_LT(ram_fraction * nx.ram_gb * 1e9, static_cast<double>(fp));

    fleet::FleetConfig cfg;
    cfg.groups.push_back(fleet::parseNodeGroup("nx:2"));
    fleet::FleetModelConfig mc;
    mc.model = "alexnet";
    mc.arrivals.qps = 100.0;
    cfg.models.push_back(mc);
    cfg.duration_s = 0.2;
    cfg.ram_fraction = ram_fraction;
    fleet::FleetReport rep = fleet::runFleet(cfg);
    ASSERT_EQ(rep.models.size(), 1u);
    EXPECT_EQ(rep.models[0].serving_nodes, 2);
    EXPECT_EQ(rep.shed, 0);

    serve::ServeConfig scfg;
    serve::ModelConfig smc;
    smc.model = "alexnet";
    smc.arrivals.qps = 100.0;
    scfg.models.push_back(smc);
    scfg.devices.push_back(nx);
    scfg.duration_s = 0.2;
    scfg.ram_fraction = ram_fraction;
    serve::ServeReport srep = serve::runServer(scfg);
    EXPECT_EQ(srep.models[0].instances, 1);
}

TEST(Fleet, DifferentSeedDifferentWorkload)
{
    fleet::FleetConfig cfg = smallFleet();
    std::string a = fleet::runFleet(cfg).toJson();
    cfg.seed = 8;
    std::string b = fleet::runFleet(cfg).toJson();
    EXPECT_NE(a, b);
}

// Every admitted request is accounted for: completed + shed ==
// offered even when a node drains mid-run and later rejoins.
TEST(Fleet, FailureConservesRequests)
{
    fleet::FleetConfig cfg = smallFleet();
    fleet::FailureSpec fs;
    fs.node = 0;
    fs.fail_s = 0.4;
    fs.rejoin_s = 0.8;
    cfg.failures.push_back(fs);

    fleet::FleetReport rep = fleet::runFleet(cfg);
    EXPECT_GT(rep.offered, 0);
    EXPECT_EQ(rep.unaccounted, 0);
    EXPECT_EQ(rep.completed + rep.shed, rep.offered);

    ASSERT_EQ(rep.events.size(), 2u);
    EXPECT_EQ(rep.events[0].kind, "fail");
    EXPECT_DOUBLE_EQ(rep.events[0].t_s, 0.4);
    EXPECT_GT(rep.events[0].remap_pct, 0.0);
    EXPECT_EQ(rep.events[1].kind, "rejoin");
    EXPECT_DOUBLE_EQ(rep.events[1].t_s, 0.8);
}

// Under load a failing node has queued work: the fail event re-routes
// it instead of only remapping the ring, and every request is still
// accounted for, fleet-wide and per model.
TEST(Fleet, LoadedFailoverReroutesAndConserves)
{
    fleet::FleetConfig cfg = smallFleet();
    cfg.models[0].arrivals.qps = 3000.0;
    cfg.admission_control = false;
    cfg.quarantine_on_page = false;
    fleet::FailureSpec fs;
    fs.node = 0;
    fs.fail_s = 0.4;
    fs.rejoin_s = 0.8;
    cfg.failures.push_back(fs);

    fleet::FleetReport rep = fleet::runFleet(cfg);
    ASSERT_EQ(rep.events.size(), 2u);
    EXPECT_EQ(rep.events[0].kind, "fail");
    EXPECT_GT(rep.events[0].rerouted, 0);
    EXPECT_EQ(rep.unaccounted, 0);
    EXPECT_EQ(rep.completed + rep.shed, rep.offered);

    std::int64_t offered = 0, shed = 0, completed = 0, in_groups = 0;
    for (const fleet::FleetModelStats &m : rep.models) {
        offered += m.offered;
        shed += m.shed;
        completed += m.completed;
    }
    for (const fleet::FleetGroupStats &g : rep.groups)
        in_groups += g.completed;
    EXPECT_EQ(offered, rep.offered);
    EXPECT_EQ(shed, rep.shed);
    EXPECT_EQ(completed, rep.completed);
    EXPECT_EQ(in_groups, rep.completed);
}

// Past the fleet's capacity every node pages: the per-group counts
// sum to the fleet totals, list in group-name order (agx1 before
// nx0, the reverse of group-id order), and each page quarantines
// its node.
TEST(Fleet, NodePagesRollUpByGroupInNameOrder)
{
    fleet::FleetConfig cfg = smallFleet();
    cfg.models[0].arrivals.qps = 4000.0;
    fleet::FleetReport rep = fleet::runFleet(cfg);

    EXPECT_EQ(rep.alerts.pages, 4);
    EXPECT_EQ(rep.alerts.warns, 8);
    EXPECT_EQ(rep.alerts.clears, 0);
    EXPECT_NEAR(rep.alerts.first_page_s, 0.2352, 5e-5);

    ASSERT_EQ(rep.alerts_by_group.size(), 2u);
    EXPECT_EQ(rep.alerts_by_group[0].first, "agx1");
    EXPECT_EQ(rep.alerts_by_group[1].first, "nx0");
    std::int64_t pages = 0, warns = 0, clears = 0;
    for (const auto &[group, c] : rep.alerts_by_group) {
        pages += c.pages;
        warns += c.warns;
        clears += c.clears;
    }
    EXPECT_EQ(pages, rep.alerts.pages);
    EXPECT_EQ(warns, rep.alerts.warns);
    EXPECT_EQ(clears, rep.alerts.clears);
    EXPECT_EQ(rep.alerts_by_group[0].second.pages, 1);
    EXPECT_EQ(rep.alerts_by_group[1].second.pages, 3);
    EXPECT_EQ(rep.alerts_by_group[0].second.warns, 2);
    EXPECT_EQ(rep.alerts_by_group[1].second.warns, 6);

    std::int64_t page_quarantines = 0;
    for (const fleet::FleetEvent &e : rep.events)
        if (e.kind == "quarantine" && e.reason == "slo_page")
            page_quarantines++;
    EXPECT_EQ(page_quarantines, rep.alerts.pages);

    // The pages quarantined their nodes from inside the predicted-free
    // feed, rerouting queued requests mid-loop: every request is still
    // completed or shed exactly once.
    EXPECT_GT(rep.completed, 0);
    EXPECT_EQ(rep.unaccounted, 0);
    EXPECT_EQ(rep.completed + rep.shed, rep.offered);
}

TEST(Fleet, ValidatesConfig)
{
    fleet::FleetConfig none;
    EXPECT_THROW(fleet::runFleet(none), FatalError);

    fleet::FleetConfig bad = smallFleet();
    bad.failures.push_back({99, 0.5, -1.0});
    EXPECT_THROW(fleet::runFleet(bad), FatalError);

    fleet::FleetConfig dup = smallFleet();
    dup.models.push_back(dup.models[0]);
    EXPECT_THROW(fleet::runFleet(dup), FatalError);
}

TEST(FleetSpec, ParseNodeGroup)
{
    fleet::NodeGroup g =
        fleet::parseNodeGroup("nx:8:clock=0.6:name=straggler");
    EXPECT_EQ(g.count, 8);
    EXPECT_EQ(g.name, "straggler");
    EXPECT_DOUBLE_EQ(g.clock_ghz, 0.6);
    // parseNodeGroup only parses; semantic validation (positive
    // counts, known devices) happens when the fleet is resolved.
    EXPECT_THROW(
        fleet::resolveFleet({fleet::parseNodeGroup("nx:0")}),
        FatalError);
    EXPECT_THROW(
        fleet::resolveFleet({fleet::parseNodeGroup("warp9:4")}),
        FatalError);
    EXPECT_THROW(fleet::parseNodeGroup("nx"), FatalError);
    EXPECT_THROW(fleet::parseNodeGroup("nx:4:warp=9"), FatalError);
}

TEST(FleetSpec, ResolveSharesDeviceClasses)
{
    std::vector<fleet::NodeGroup> groups = {
        fleet::parseNodeGroup("nx:2"),
        fleet::parseNodeGroup("nx:2"), // same class as pool 0
        fleet::parseNodeGroup("nx:2:clock=0.6"),
        fleet::parseNodeGroup("agx:1")};
    fleet::ResolvedFleet fleet = fleet::resolveFleet(groups);
    ASSERT_EQ(fleet.nodes.size(), 7u);
    // nx, nx@0.6 and agx: three distinct (device, clock) classes.
    EXPECT_EQ(fleet.classes.size(), 3u);
    EXPECT_EQ(fleet.nodes[0].dev_class, fleet.nodes[2].dev_class);
    EXPECT_NE(fleet.nodes[0].dev_class, fleet.nodes[4].dev_class);
    EXPECT_EQ(fleet.nodes[0].name, "nx0/0");
}

// Capability order ranks by nominal spec-sheet FLOPS (max clock),
// so a throttled straggler class still ranks as its full-speed
// platform; calibrated order uses the measured service time and
// demotes it.
TEST(FleetPlacement, CapabilityVsCalibrated)
{
    std::vector<fleet::NodeGroup> groups = {
        fleet::parseNodeGroup("nx:2"),
        fleet::parseNodeGroup("agx:2:clock=0.6")};
    fleet::ResolvedFleet fleet = fleet::resolveFleet(groups);
    ASSERT_EQ(fleet.classes.size(), 2u);

    auto cap = fleet::rankClasses(
        fleet::PlacementPolicy::kCapabilityOrder, fleet.classes, {});
    // Nominal AGX >> nominal NX regardless of the throttle.
    EXPECT_EQ(fleet.classes[static_cast<std::size_t>(cap[0])].label(),
              "agx@0.6");

    auto cal = fleet::rankClasses(
        fleet::PlacementPolicy::kCalibrated, fleet.classes,
        {0.002, 0.009});
    EXPECT_EQ(fleet.classes[static_cast<std::size_t>(cal[0])].label(),
              "nx");

    EXPECT_THROW(
        fleet::rankClasses(fleet::PlacementPolicy::kCalibrated,
                           fleet.classes, {0.1}),
        FatalError);
}

// Regression for the capability-placement blind spot: ranking by
// raw peakFp16Flops regardless of serving precision placed an INT8
// model exactly like an FP16 one. With precision-effective peaks, a
// class with a modest FP16 peak but a strong IMMA/DP4A path outranks
// a nominally bigger class once the model serves @int8.
TEST(FleetPlacement, PrecisionFlipsCapabilityOrder)
{
    fleet::DeviceClass big; // high FP16 peak, weak INT8 path
    big.device = "agx";
    big.spec = gpusim::DeviceSpec::xavierAGX();
    big.spec.int8_speedup = 1.0;
    fleet::DeviceClass small_; // lower peak, strong INT8 path
    small_.device = "nx";
    small_.spec = gpusim::DeviceSpec::xavierNX();
    small_.spec.int8_speedup = 2.0;
    std::vector<fleet::DeviceClass> classes = {big, small_};

    auto fp16 = fleet::rankClasses(
        fleet::PlacementPolicy::kCapabilityOrder, classes, {},
        nn::Precision::kFp16);
    EXPECT_EQ(fp16[0], 0) << "fp16 fleet prefers the big class";

    auto int8 = fleet::rankClasses(
        fleet::PlacementPolicy::kCapabilityOrder, classes, {},
        nn::Precision::kInt8);
    EXPECT_EQ(int8[0], 1) << "int8 fleet prefers the INT8-fast class";
}

TEST(FleetPlacement, SelectNodesTakesRankOrder)
{
    std::vector<fleet::NodeGroup> groups = {
        fleet::parseNodeGroup("nx:4"),
        fleet::parseNodeGroup("agx:4")};
    fleet::ResolvedFleet fleet = fleet::resolveFleet(groups);
    auto cal = fleet::rankClasses(
        fleet::PlacementPolicy::kCalibrated, fleet.classes,
        {0.001, 0.002});
    auto serves = fleet::selectNodes(fleet, cal, 50.0);
    int count = 0;
    for (std::size_t n = 0; n < serves.size(); n++)
        if (serves[n])
            count++;
    EXPECT_EQ(count, 4);
    // The preferred class (nx, nodes 0-3) fills the quota.
    for (int n = 0; n < 4; n++)
        EXPECT_TRUE(serves[static_cast<std::size_t>(n)]);
}

TEST(CohortPlanner, NestedDeterministicCohorts)
{
    std::vector<int> members;
    for (int i = 0; i < 200; i++)
        members.push_back(i);

    deploy::CohortPlanner a(members, 17);
    deploy::CohortPlanner b(members, 17);
    EXPECT_EQ(a.order(), b.order());

    auto c1 = a.cohort(1.0);
    auto c10 = a.cohort(10.0);
    auto c100 = a.cohort(100.0);
    EXPECT_EQ(c1.size(), 2u);   // ceil(1% of 200)
    EXPECT_EQ(c10.size(), 20u); // ceil(10% of 200)
    EXPECT_EQ(c100.size(), 200u);
    EXPECT_TRUE(std::is_sorted(c1.begin(), c1.end()));

    std::set<int> s10(c10.begin(), c10.end());
    for (int n : c1)
        EXPECT_TRUE(s10.count(n)) << "cohorts must be nested";

    // A different seed draws a different canary set (with 200
    // members the chance of an identical 20-node draw is nil).
    deploy::CohortPlanner c(members, 18);
    EXPECT_NE(c.cohort(10.0), c10);

    // Tiny fleets still canary at least one node.
    deploy::CohortPlanner tiny({5, 6}, 1);
    EXPECT_EQ(tiny.cohort(1.0).size(), 1u);
}

// A staged rollout through the fleet: verdicts are per device
// class, rejected classes quarantine their canaries, and the
// rollout halts before the bad build goes wide.
TEST(Fleet, RolloutHaltsOnRejectedClass)
{
    fleet::FleetConfig cfg = smallFleet();
    cfg.duration_s = 2.0;
    cfg.models[0].model = "resnet-18";
    fleet::RolloutSpec ro;
    ro.model = "resnet-18";
    ro.candidate_build_id = 2;
    ro.stages.push_back({0.8, 10.0});
    ro.stages.push_back({1.4, 100.0});
    cfg.rollouts.push_back(ro);

    fleet::FleetReport rep = fleet::runFleet(cfg);
    ASSERT_EQ(rep.rollouts.size(), 1u);
    const fleet::RolloutStats &rs = rep.rollouts[0];
    EXPECT_EQ(rs.verdicts.size(), 2u); // one per device class
    bool any_rejected = false;
    int quarantined = 0;
    for (const auto &st : rs.stages)
        quarantined += st.quarantined;
    for (const auto &v : rs.verdicts)
        any_rejected = any_rejected || !v.accepted;
    if (any_rejected) {
        EXPECT_TRUE(rs.halted);
        EXPECT_GT(quarantined, 0);
        EXPECT_FALSE(rs.stages.back().executed);
    } else {
        EXPECT_FALSE(rs.halted);
        EXPECT_EQ(quarantined, 0);
    }
    EXPECT_EQ(rep.unaccounted, 0);
}

} // namespace

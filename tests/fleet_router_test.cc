/**
 * @file
 * Routing invariants for the EdgeFleet consistent-hash ring and the
 * least-predicted-sojourn policy built on top of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "fleet/fleet.hh"
#include "fleet/router.hh"

namespace {

using namespace edgert;
using fleet::HashRing;

std::vector<int>
iota(int n)
{
    std::vector<int> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        v[static_cast<std::size_t>(i)] = i;
    return v;
}

std::vector<int>
successorsOf(const HashRing &ring, std::uint64_t key, int n)
{
    std::vector<int> out;
    ring.successors(key, n, out);
    return out;
}

// At >= 100 vnodes the arc-length spread per member is ~1/sqrt(v)
// relative, so over 50 members every node's share of 100k probe
// keys must stay within [0.5x, 1.5x] of the fair share.
TEST(HashRing, BalanceWithinBoundAt128Vnodes)
{
    const int kNodes = 50, kProbes = 100'000;
    HashRing ring(42, 128);
    ring.reset(iota(kNodes));

    std::map<int, int> load;
    for (int i = 0; i < kProbes; i++)
        load[ring.route(ring.keyFor(i))]++;

    ASSERT_EQ(load.size(), static_cast<std::size_t>(kNodes));
    double fair = static_cast<double>(kProbes) / kNodes;
    for (const auto &[node, hits] : load) {
        EXPECT_GT(hits, 0.5 * fair) << "node " << node;
        EXPECT_LT(hits, 1.5 * fair) << "node " << node;
    }
}

// Removing one member must move ONLY the keys that member owned —
// every key owned by a survivor keeps its owner.
TEST(HashRing, MinimalRemapOnRemoval)
{
    const int kNodes = 20, kProbes = 50'000, kVictim = 7;
    HashRing before(7, 128);
    before.reset(iota(kNodes));
    HashRing after = before;
    after.remove(kVictim);

    int moved = 0;
    for (int i = 0; i < kProbes; i++) {
        std::uint64_t key = before.keyFor(i);
        int was = before.route(key), now = after.route(key);
        ASSERT_NE(now, kVictim);
        if (was != kVictim)
            EXPECT_EQ(now, was) << "survivor-owned key moved";
        else
            moved++;
    }
    // The victim's share ~ 1/20 of the key space.
    EXPECT_GT(moved, kProbes / 100);
    EXPECT_LT(moved, kProbes / 5);

    double pct = fleet::remapPct(before, after, kProbes);
    EXPECT_GT(pct, 1.0);
    EXPECT_LT(pct, 20.0);
}

TEST(HashRing, RejoinRestoresOwnership)
{
    HashRing ring(3, 100);
    ring.reset(iota(12));
    HashRing original = ring;
    ring.remove(5);
    ring.add(5);
    for (int i = 0; i < 10'000; i++) {
        std::uint64_t key = ring.keyFor(i);
        EXPECT_EQ(ring.route(key), original.route(key));
    }
}

TEST(HashRing, SameSeedSameRing)
{
    HashRing a(99, 128), b(99, 128);
    a.reset(iota(30));
    b.reset(iota(30));
    for (int i = 0; i < 10'000; i++)
        EXPECT_EQ(a.route(a.keyFor(i)), b.route(b.keyFor(i)));
}

TEST(HashRing, SuccessorsAreDistinctAndStartAtOwner)
{
    HashRing ring(5, 128);
    ring.reset(iota(10));
    for (int i = 0; i < 1000; i++) {
        std::uint64_t key = ring.keyFor(i);
        auto succ = successorsOf(ring, key, 4);
        ASSERT_EQ(succ.size(), 4u);
        EXPECT_EQ(succ.front(), ring.route(key));
        std::set<int> uniq(succ.begin(), succ.end());
        EXPECT_EQ(uniq.size(), succ.size());
    }
    // Asking for more successors than members returns each member
    // exactly once.
    auto all = successorsOf(ring, ring.keyFor(0), 64);
    EXPECT_EQ(all.size(), 10u);
}

// successors() stops once every member is listed, however large n
// is, and replaces whatever the caller's buffer held. Both must
// agree with a walk over every point of the ring, near and past the
// member count, on full rings and on rings with members removed.
TEST(HashRing, SuccessorsMatchWholeRingWalkAtAnyCount)
{
    auto walk = [](const HashRing &ring, std::uint64_t key,
                   std::size_t n) {
        const auto &pts = ring.points();
        std::size_t i = static_cast<std::size_t>(
            std::lower_bound(pts.begin(), pts.end(), key,
                             [](const auto &p, std::uint64_t k) {
                                 return p.first < k;
                             }) -
            pts.begin());
        std::vector<int> out;
        for (std::size_t walked = 0; walked < pts.size(); walked++) {
            const int node = pts[(i + walked) % pts.size()].second;
            if (std::find(out.begin(), out.end(), node) == out.end())
                out.push_back(node);
        }
        if (out.size() > n)
            out.resize(n);
        return out;
    };
    std::mt19937_64 rng(41);
    for (int kMembers : {1, 2, 7, 40}) {
        for (bool removed : {false, true}) {
            HashRing ring(3, 16);
            ring.reset(iota(kMembers + (removed ? 3 : 0)));
            if (removed)
                for (int node : {0, kMembers / 2 + 1, kMembers + 2})
                    ring.remove(node);
            const int members = static_cast<int>(ring.memberCount());
            ASSERT_EQ(members, kMembers);
            for (int n : {members - 1, members, members + 1,
                          10 * members}) {
                SCOPED_TRACE(::testing::Message()
                             << "members " << members << " removed "
                             << removed << " n " << n);
                std::vector<int> prefilled(
                    static_cast<std::size_t>(members + 5), -1);
                for (int i = 0; i < 200; i++) {
                    const std::uint64_t key = rng();
                    const std::vector<int> want = walk(
                        ring, key,
                        static_cast<std::size_t>(std::max(n, 0)));
                    ASSERT_EQ(successorsOf(ring, key, n), want);
                    ring.successors(key, n, prefilled);
                    ASSERT_EQ(prefilled, want);
                }
            }
        }
    }
}

// route() and successors() search only the run of points that
// shares the key's top bits. They must agree with a search over the
// whole ring for seeded keys, for every point and its neighbours,
// and for every index bucket's edges, through bulk builds, inserts
// and removals down to one member.
TEST(HashRing, IndexedLookupMatchesFullSearch)
{
    auto check = [](const HashRing &ring) {
        const auto &pts = ring.points();
        ASSERT_FALSE(pts.empty());
        // Up to n distinct members from the key's owner on, found by
        // a binary search over every point.
        auto reference = [&](std::uint64_t key, std::size_t n) {
            auto it = std::lower_bound(
                pts.begin(), pts.end(), key,
                [](const auto &p, std::uint64_t k) {
                    return p.first < k;
                });
            std::vector<int> out;
            for (std::size_t walked = 0;
                 walked < pts.size() && out.size() < n; walked++, ++it) {
                if (it == pts.end())
                    it = pts.begin();
                if (std::find(out.begin(), out.end(), it->second) ==
                    out.end())
                    out.push_back(it->second);
            }
            return out;
        };
        std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}};
        std::mt19937_64 rng(23);
        for (int i = 0; i < 100'000; i++)
            keys.push_back(rng());
        for (const auto &p : pts)
            for (std::uint64_t k : {p.first - 1, p.first, p.first + 1})
                keys.push_back(k);
        for (std::uint64_t b = 0; b < 4096; b++)
            for (std::uint64_t k : {(b << 52) - 1, b << 52, (b << 52) + 1})
                keys.push_back(k);
        int mismatches = 0;
        for (std::uint64_t key : keys) {
            const std::vector<int> want = reference(key, 3);
            if (ring.route(key) != want.front() ||
                successorsOf(ring, key, 3) != want)
                mismatches++;
        }
        EXPECT_EQ(mismatches, 0);
    };
    const int kNodes = 300;
    HashRing ring(17, 128);
    ring.reset(iota(kNodes));
    {
        SCOPED_TRACE("reset");
        check(ring);
    }
    ring.add(kNodes + 5);
    {
        SCOPED_TRACE("add");
        check(ring);
    }
    for (int node = 0; node < kNodes; node++) {
        ring.remove(node);
        if (node == kNodes / 2) {
            SCOPED_TRACE("remove to half");
            check(ring);
        }
    }
    ASSERT_EQ(ring.memberCount(), 1u);
    SCOPED_TRACE("remove to one member");
    check(ring);
}

// reset() places points by their top hash bits and sorts each
// bucket; the ring must equal a whole-ring std::sort of the same
// points and the ring add() builds by sorted insertion, and route
// through an equal bucket table.
TEST(HashRing, BucketedBuildMatchesFullSort)
{
    const std::vector<std::vector<int>> member_sets = {
        {}, {5}, iota(50), {900, 3, 41, 3, 7, 12000, 41}};
    std::mt19937_64 rng(5);
    std::vector<std::uint64_t> keys(2000);
    for (std::uint64_t &k : keys)
        k = rng();
    for (std::uint64_t seed : {1u, 17u, 99u})
        for (int vnodes : {1, 7, 128})
            for (const std::vector<int> &members : member_sets) {
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seed << " vnodes " << vnodes
                             << " members " << members.size());
                HashRing ring(seed, vnodes);
                ring.reset(members);
                HashRing inserted(seed, vnodes);
                for (int node : members)
                    inserted.add(node);
                auto sorted = ring.points();
                std::sort(sorted.begin(), sorted.end());
                EXPECT_EQ(ring.points(), sorted);
                EXPECT_EQ(ring.points(), inserted.points());
                EXPECT_EQ(ring.memberCount(), inserted.memberCount());
                for (std::uint64_t k : keys)
                    ASSERT_EQ(ring.route(k), inserted.route(k));
            }
}

TEST(HashRing, EmptyRingRoutesNowhere)
{
    HashRing ring(1, 128);
    EXPECT_EQ(ring.route(12345), -1);
    std::vector<int> out = {3};
    ring.successors(12345, 4, out);
    EXPECT_TRUE(out.empty());
}

// Least-sojourn tie-break: on a fleet of identical idle nodes every
// candidate scores the same predicted sojourn, so the lowest node
// id among the ring candidates must win — deterministically. With
// sojourn_choices covering the whole fleet, that is node 0 for
// every widely-spaced request.
TEST(SojournPolicy, TieBreaksToLowestNodeId)
{
    fleet::FleetConfig cfg;
    // Four identical single-node pools so the report's per-group
    // stats expose which node served.
    cfg.groups.push_back(fleet::parseNodeGroup("nx:1:name=a"));
    cfg.groups.push_back(fleet::parseNodeGroup("nx:1:name=b"));
    cfg.groups.push_back(fleet::parseNodeGroup("nx:1:name=c"));
    cfg.groups.push_back(fleet::parseNodeGroup("nx:1:name=d"));
    fleet::FleetModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 100.0;
    // Sparse arrivals: at 4 qps the expected gap (250 ms) dwarfs
    // the alexnet service time, so every node is idle at every
    // arrival and the predicted sojourns tie exactly.  (A clustered
    // Poisson pair would make the busy node lose on merit — that is
    // least-sojourn working, not a tie.)
    mc.arrivals.qps = 4.0;
    mc.batching.max_batch = 1; // no fill-wait term: exact ties
    cfg.models.push_back(mc);
    cfg.duration_s = 2.0;
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.sojourn_choices = 4; // candidate set = the whole fleet

    fleet::FleetReport rep = fleet::runFleet(cfg);
    ASSERT_EQ(rep.groups.size(), 4u);
    EXPECT_GT(rep.offered, 0);
    EXPECT_EQ(rep.groups[0].completed, rep.completed)
        << "ties must resolve to node 0";
    for (std::size_t g = 1; g < rep.groups.size(); g++)
        EXPECT_EQ(rep.groups[g].completed, 0)
            << "group " << rep.groups[g].group;
}

TEST(RoutePolicy, ParseAndName)
{
    EXPECT_EQ(fleet::parseRoutePolicy("hash"),
              fleet::RoutePolicy::kHash);
    EXPECT_EQ(fleet::parseRoutePolicy("sojourn"),
              fleet::RoutePolicy::kLeastSojourn);
    EXPECT_STREQ(fleet::routePolicyName(fleet::RoutePolicy::kHash),
                 "hash");
    EXPECT_STREQ(
        fleet::routePolicyName(fleet::RoutePolicy::kLeastSojourn),
        "sojourn");
    EXPECT_THROW(fleet::parseRoutePolicy("random"),
                 edgert::FatalError);
}

} // namespace

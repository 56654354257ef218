#ifndef EDGERT_FLEET_ROUTER_HH
#define EDGERT_FLEET_ROUTER_HH

/**
 * @file
 * Request routing across fleet nodes.
 *
 * Two pluggable policies:
 *
 *  - hash: seeded consistent hashing over a ring of virtual nodes.
 *    Every node owns `vnodes` points; a request lands on the first
 *    point clockwise of its key. Removing a node remaps only the
 *    keys that node owned (its points' arcs fall to their ring
 *    successors), so failures and rejoins move a ~1/n slice of
 *    traffic instead of reshuffling the fleet.
 *
 *  - sojourn: least-predicted-sojourn over a deterministic
 *    candidate set. The ring's first `choices` distinct successors
 *    of the key are scored with serve::predictSojournSeconds(members,
 *    instances, versions, policy, queued_ahead, now_s, rate_hz) over
 *    the node's instances of the model, each read in place with the
 *    calibrated service times of its own version's ladder, and the
 *    minimum wins, ties broken by lowest node id — the classic
 *    power-of-d-choices balancer, made reproducible by drawing
 *    candidates from the same seeded ring the hash policy uses.
 *
 * Everything is a pure function of (seed, membership, key): no
 * global state, no wall clock, byte-stable across platforms.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace edgert::fleet {

/** Routing policy selector. */
enum class RoutePolicy { kHash, kLeastSojourn };

/** Parse "hash" | "sojourn" (fatal on anything else). */
RoutePolicy parseRoutePolicy(const std::string &s);

/** Stable wire name ("hash" / "sojourn"). */
const char *routePolicyName(RoutePolicy policy);

/**
 * Seeded consistent-hash ring with virtual nodes. reset() places
 * every point by its top kIndexBits hash bits (a counting sort) and
 * sorts each bucket's run; add() inserts each of its points into the
 * sorted ring and remove() filters it, so both are linear in the
 * ring size. A lookup reads the bucket table for the run of points
 * that shares the key's top bits (~16 at 500 members and 128
 * vnodes) and binary-searches only that run.
 */
class HashRing
{
  public:
    /**
     * @param seed   Placement seed; equal seeds give equal rings.
     * @param vnodes Virtual nodes per member (>= 1). More points
     *        flatten the load spread (stddev ~ 1/sqrt(vnodes)).
     */
    HashRing(std::uint64_t seed, int vnodes);

    /** Replace the whole membership (bulk build: a bucketed sort
     *  instead of per-point insertion). Duplicates are dropped. */
    void reset(const std::vector<int> &nodes);

    /** Add a member; adding a present member is a no-op. */
    void add(int node);

    /** Remove a member; removing an absent member is a no-op. */
    void remove(int node);

    bool contains(int node) const;
    std::size_t memberCount() const { return members_.size(); }
    bool empty() const { return ring_.empty(); }

    /** Owner of a key, or -1 when the ring is empty. */
    int route(std::uint64_t key) const;

    /**
     * Replace `out` with the first min(n, memberCount()) distinct
     * members in ring order starting at the key's owner (the hash
     * policy's failover / candidate order). The walk stops once it
     * has them all, so a caller that keeps `out` across lookups
     * allocates nothing per lookup.
     */
    void successors(std::uint64_t key, int n, std::vector<int> &out) const;

    /** Hash a request id into ring-key space. */
    std::uint64_t keyFor(std::int64_t request_id) const;

    /** The ring: (hash, node) points in ascending order. */
    const std::vector<std::pair<std::uint64_t, int>> &points() const
    {
        return ring_;
    }

  private:
    static constexpr int kIndexBits = 12;

    std::uint64_t pointHash(int node, int vnode) const;
    /** Rebuild first_ after the ring changed. */
    void reindex();
    /** Index of the first point whose hash is >= key (ring size if
     *  none): std::lower_bound over the whole ring. */
    std::size_t lowerBound(std::uint64_t key) const;

    std::uint64_t seed_;
    int vnodes_;
    std::vector<int> members_; //!< sorted member ids
    /** Sorted (hash, node); the node breaks hash ties totally. */
    std::vector<std::pair<std::uint64_t, int>> ring_;
    /** first_[b]: index of the first point whose top kIndexBits
     *  hash bits are >= b; first_[2^kIndexBits] is the ring size. */
    std::vector<std::uint32_t> first_;
};

/**
 * Fraction (in percent) of `probes` deterministic probe keys whose
 * owner differs between two rings — the report's "how much traffic
 * did this membership change move" figure and the minimal-remap
 * test's measurement.
 */
double remapPct(const HashRing &a, const HashRing &b, int probes);

} // namespace edgert::fleet

#endif // EDGERT_FLEET_ROUTER_HH

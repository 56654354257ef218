#include "fleet/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace edgert::fleet {

RoutePolicy
parseRoutePolicy(const std::string &s)
{
    if (s == "hash")
        return RoutePolicy::kHash;
    if (s == "sojourn")
        return RoutePolicy::kLeastSojourn;
    fatal("unknown route policy '", s, "' (expected hash|sojourn)");
}

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::kHash: return "hash";
      case RoutePolicy::kLeastSojourn: return "sojourn";
    }
    return "?";
}

HashRing::HashRing(std::uint64_t seed, int vnodes)
    : seed_(seed), vnodes_(vnodes)
{
    if (vnodes_ < 1)
        fatal("HashRing needs at least one virtual node (got ",
              vnodes_, ")");
}

std::uint64_t
HashRing::pointHash(int node, int vnode) const
{
    // Pack (node, vnode) into one word before mixing: feeding the
    // two small ints through hashCombine first aliases badly
    // (vnode + (node << 6) collides across members), leaving half
    // the ring points duplicated and the lowest node id owning
    // every shadowed arc.  The packed form is injective, so every
    // ring point is distinct by construction.
    return hashCombine(
        seed_, (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(node))
                << 32) |
                   static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(vnode)));
}

void
HashRing::reset(const std::vector<int> &nodes)
{
    members_.clear();
    ring_.clear();
    for (int node : nodes)
        members_.push_back(node);
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
    // Counting sort on the top kIndexBits hash bits, so first_ is the
    // bucket prefix sum, then sort each bucket's short run.
    constexpr std::size_t buckets = std::size_t{1} << kIndexBits;
    first_.assign(buckets + 1, 0);
    for (int node : members_)
        for (int v = 0; v < vnodes_; v++)
            first_[(pointHash(node, v) >> (64 - kIndexBits)) + 1]++;
    for (std::size_t b = 0; b < buckets; b++)
        first_[b + 1] += first_[b];
    ring_.resize(first_[buckets]);
    std::vector<std::uint32_t> fill(first_.begin(), first_.end() - 1);
    for (int node : members_)
        for (int v = 0; v < vnodes_; v++) {
            const std::uint64_t h = pointHash(node, v);
            ring_[fill[h >> (64 - kIndexBits)]++] = {h, node};
        }
    for (std::size_t b = 0; b < buckets; b++)
        std::sort(ring_.begin() + first_[b], ring_.begin() + first_[b + 1]);
}

void
HashRing::reindex()
{
    constexpr std::size_t buckets = std::size_t{1} << kIndexBits;
    first_.resize(buckets + 1);
    std::size_t i = 0;
    for (std::size_t b = 0; b < buckets; b++) {
        while (i < ring_.size() &&
               (ring_[i].first >> (64 - kIndexBits)) < b)
            i++;
        first_[b] = static_cast<std::uint32_t>(i);
    }
    first_[buckets] = static_cast<std::uint32_t>(ring_.size());
}

std::size_t
HashRing::lowerBound(std::uint64_t key) const
{
    // Points below the key's bucket hash below the key and points
    // past it above, so the answer lies in the bucket's run or is
    // the run's end (the next bucket's first point).
    const std::uint64_t b = key >> (64 - kIndexBits);
    const auto lo = ring_.begin() + first_[b];
    const auto hi = ring_.begin() + first_[b + 1];
    return static_cast<std::size_t>(
        std::lower_bound(lo, hi, key,
                         [](const auto &p, std::uint64_t k) {
                             return p.first < k;
                         }) -
        ring_.begin());
}

void
HashRing::add(int node)
{
    auto it = std::lower_bound(members_.begin(), members_.end(),
                               node);
    if (it != members_.end() && *it == node)
        return;
    members_.insert(it, node);
    for (int v = 0; v < vnodes_; v++) {
        std::pair<std::uint64_t, int> p{pointHash(node, v), node};
        ring_.insert(
            std::lower_bound(ring_.begin(), ring_.end(), p), p);
    }
    reindex();
}

void
HashRing::remove(int node)
{
    auto it = std::lower_bound(members_.begin(), members_.end(),
                               node);
    if (it == members_.end() || *it != node)
        return;
    members_.erase(it);
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [node](const auto &p) {
                                   return p.second == node;
                               }),
                ring_.end());
    reindex();
}

bool
HashRing::contains(int node) const
{
    return std::binary_search(members_.begin(), members_.end(),
                              node);
}

int
HashRing::route(std::uint64_t key) const
{
    if (ring_.empty())
        return -1;
    std::size_t i = lowerBound(key);
    if (i == ring_.size())
        i = 0; // wrap
    return ring_[i].second;
}

void
HashRing::successors(std::uint64_t key, int n, std::vector<int> &out) const
{
    out.clear();
    if (ring_.empty() || n <= 0)
        return;
    const std::size_t want =
        std::min(static_cast<std::size_t>(n), members_.size());
    auto it = ring_.begin() +
              static_cast<std::ptrdiff_t>(lowerBound(key));
    while (out.size() < want) {
        if (it == ring_.end())
            it = ring_.begin();
        if (std::find(out.begin(), out.end(), it->second) ==
            out.end())
            out.push_back(it->second);
        ++it;
    }
}

std::uint64_t
HashRing::keyFor(std::int64_t request_id) const
{
    return mix64(hashCombine(
        seed_, static_cast<std::uint64_t>(request_id)));
}

double
remapPct(const HashRing &a, const HashRing &b, int probes)
{
    if (probes <= 0)
        return 0.0;
    int moved = 0;
    for (int i = 0; i < probes; i++) {
        std::uint64_t key =
            mix64(hashCombine(0x9e3779b97f4a7c15ull,
                              static_cast<std::uint64_t>(i)));
        if (a.route(key) != b.route(key))
            moved++;
    }
    return 100.0 * static_cast<double>(moved) /
           static_cast<double>(probes);
}

} // namespace edgert::fleet

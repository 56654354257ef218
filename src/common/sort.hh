#ifndef EDGERT_COMMON_SORT_HH
#define EDGERT_COMMON_SORT_HH

/**
 * @file
 * Sorting for sequences that are already nearly in order, such as
 * frames listed in capture order and sorted by a ready time a few
 * milliseconds later.
 */

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>

namespace edgert {

/** Element shifts per item an insertion pass may spend before
 *  sortNearlySorted() hands the range to std::sort. */
inline constexpr std::size_t kNearlySortedShiftsPerItem = 8;

/**
 * Sort [first, last) by `less`. An insertion sort runs first: it is
 * linear when every element sits a few places from its slot. Once
 * its shifts pass kNearlySortedShiftsPerItem * n, the rest is left
 * to std::sort, so input far from sorted (a decode backlog, say)
 * costs O(n log n), never O(n^2). Equal elements may be reordered
 * either way, so keys should order totally.
 *
 * @return true when the insertion pass finished the sort, false
 *         when it fell back to std::sort.
 */
template <class It, class Less = std::less<>>
bool
sortNearlySorted(It first, It last, Less less = {})
{
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    std::size_t budget = kNearlySortedShiftsPerItem * n;
    for (It i = first; i != last; ++i) {
        auto v = std::move(*i);
        It hole = i;
        for (; hole != first && less(v, *std::prev(hole)); --hole) {
            if (budget-- == 0) {
                *hole = std::move(v);
                std::sort(first, last, less);
                return false;
            }
            *hole = std::move(*std::prev(hole));
        }
        *hole = std::move(v);
    }
    return true;
}

} // namespace edgert

#endif // EDGERT_COMMON_SORT_HH

#include "serve/queue.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgert::serve {

void
RequestQueue::observeArrival(double now_s)
{
    if (last_arrival_s_ >= 0.0) {
        double gap = std::max(now_s - last_arrival_s_, 1e-9);
        double inst = 1.0 / gap;
        double alpha = 1.0 - std::exp(-gap / rate_tau_s_);
        rate_hz_ += alpha * (inst - rate_hz_);
    }
    last_arrival_s_ = now_s;
}

void
RequestQueue::push(std::int64_t id, double arrival_s)
{
    pending_.push({id, arrival_s});
}

void
RequestQueue::cut(int n, std::vector<std::int64_t> &out)
{
    if (n <= 0 || static_cast<std::size_t>(n) > pending_.size())
        panic("RequestQueue::cut(", n, ") with ", pending_.size(),
              " pending");
    for (int i = 0; i < n; i++) {
        out.push_back(pending_.front().id);
        pending_.pop();
    }
}

double
RequestQueue::oldestArrivalSeconds() const
{
    if (pending_.empty())
        panic("oldestArrivalSeconds() on an empty queue");
    return pending_.front().arrival_s;
}

} // namespace edgert::serve

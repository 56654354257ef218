#include "stream/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgert::stream {

BackpressurePolicy
parseBackpressurePolicy(const std::string &s)
{
    if (s == "drop_oldest")
        return BackpressurePolicy::kDropOldest;
    if (s == "skip_to_latest")
        return BackpressurePolicy::kSkipToLatest;
    if (s == "block")
        return BackpressurePolicy::kBlock;
    fatal("unknown backpressure policy '", s,
          "' (expected drop_oldest|skip_to_latest|block)");
}

std::string
backpressurePolicyName(BackpressurePolicy policy)
{
    switch (policy) {
      case BackpressurePolicy::kDropOldest: return "drop_oldest";
      case BackpressurePolicy::kSkipToLatest:
          return "skip_to_latest";
      case BackpressurePolicy::kBlock: return "block";
    }
    return "unknown";
}

StreamQueue::StreamQueue(int n_streams)
    : cameras_(static_cast<std::size_t>(std::max(n_streams, 0)))
{
    if (n_streams <= 0)
        fatal("StreamQueue needs at least one stream (got ",
              n_streams, ")");
}

void
StreamQueue::push(std::int64_t id, int stream, double ready_s,
                  BackpressurePolicy policy, int frame_budget,
                  std::vector<std::int64_t> &evicted)
{
    auto &cam = cameras_[static_cast<std::size_t>(stream)];
    std::size_t keep = cam.size();
    switch (policy) {
      case BackpressurePolicy::kDropOldest:
          keep = static_cast<std::size_t>(std::max(1, frame_budget) - 1);
          break;
      case BackpressurePolicy::kSkipToLatest: keep = 0; break;
      case BackpressurePolicy::kBlock: break;
    }
    while (cam.size() > keep) {
        evicted.push_back(cam.front().id);
        cam.pop_front();
        size_--;
    }
    cam.push_back(Frame{id, ready_s, next_seq_});
    order_.push_back(Ticket{stream, next_seq_});
    next_seq_++;
    size_++;
    popStale();
}

void
StreamQueue::popStale()
{
    while (!order_.empty()) {
        const Ticket &t = order_.front();
        const auto &cam = cameras_[static_cast<std::size_t>(t.camera)];
        if (!cam.empty() && cam.front().seq <= t.seq)
            return;
        order_.pop_front();
    }
}

void
StreamQueue::cut(int n, std::vector<std::int64_t> &out)
{
    for (; n > 0; n--) {
        if (order_.empty())
            fatal("StreamQueue::cut past end (", n,
                  " frames short)");
        auto &cam =
            cameras_[static_cast<std::size_t>(order_.front().camera)];
        out.push_back(cam.front().id);
        cam.pop_front();
        order_.pop_front();
        size_--;
        popStale();
    }
}

const StreamQueue::Frame &
StreamQueue::oldest() const
{
    if (order_.empty())
        fatal("StreamQueue: oldest frame of an empty queue");
    return cameras_[static_cast<std::size_t>(order_.front().camera)]
        .front();
}

} // namespace edgert::stream

#include "gpusim/sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpusim/timing.hh"

namespace edgert::gpusim {

#ifdef EDGERT_GPUSIM_REFERENCE
inline namespace reference {
#endif

namespace {

constexpr double kTimeEps = 1e-12;  // seconds
constexpr double kFracEps = 1e-9;   // progress fraction

// Tags every simulator knows without interning them: interned tags
// number from kFixedTags.
const std::string kFixedTagNames[] = {"host_delay", "release_at",
                                      "wait_event"};
constexpr std::int32_t kTagHostDelay = 0;
constexpr std::int32_t kTagReleaseAt = 1;
constexpr std::int32_t kTagWaitEvent = 2;
constexpr std::int32_t kFixedTags = 3;

// Fill-memo id of a kernel whose content found no free id: its fills
// are computed, never memoized.
constexpr std::uint16_t kNoMemoId = 0xFFFF;

} // namespace

double
UtilStats::smUtilizationPct(int sm_count) const
{
    if (window_s <= 0.0 || sm_count <= 0)
        return 0.0;
    return 100.0 * sm_busy_integral /
           (window_s * static_cast<double>(sm_count));
}

double
UtilStats::busyPct() const
{
    return window_s > 0.0 ? 100.0 * gpu_busy_s / window_s : 0.0;
}

GpuSim::GpuSim(const DeviceSpec &spec,
               obs::MetricRegistry *registry)
    : spec_(spec)
{
    if (spec_.sm_count <= 0)
        fatal("GpuSim: device '", spec_.name, "' has no SMs");
    sm_count_d_ = static_cast<double>(spec_.sm_count);
    eff_dram_bps_ = spec_.effDramBps();
    streams_.emplace_back(); // default stream 0
    fill_.resize(streams_.size());
    batch_stall_us_.reserve(kKernelSampleBatch);
    batch_waste_pct_.reserve(kKernelSampleBatch);

    obs::MetricRegistry &reg =
        registry ? *registry : obs::MetricRegistry::global();
    const obs::Labels dev = {{"device", spec_.name}};
    m_kernel_launches_ = reg.counter("gpusim.kernel.launches", dev);
    m_memcpy_bytes_h2d_ = reg.counter(
        "gpusim.memcpy.bytes",
        {{"device", spec_.name}, {"dir", "h2d"}});
    m_memcpy_bytes_d2h_ = reg.counter(
        "gpusim.memcpy.bytes",
        {{"device", spec_.name}, {"dir", "d2h"}});
    m_memcpy_chunks_h2d_ = reg.counter(
        "gpusim.memcpy.chunks",
        {{"device", spec_.name}, {"dir", "h2d"}});
    m_memcpy_chunks_d2h_ = reg.counter(
        "gpusim.memcpy.chunks",
        {{"device", spec_.name}, {"dir", "d2h"}});
    m_kernel_stall_us_ =
        reg.histogram("gpusim.kernel.stall_us", dev);
    m_wave_waste_pct_ =
        reg.histogram("gpusim.kernel.wave_waste_pct", dev);
}

const std::size_t GpuSim::kFillMemoBytes =
    FillMemo::kSlots * sizeof(FillMemo::Slot) +
    FillMemo::kEntries * sizeof(std::array<Share, 2>);

// A tree node: three links and a color ahead of the key and id.
const std::size_t GpuSim::kFillMemoIdBytes =
    4 * sizeof(void *) + sizeof(decltype(memo_ids_)::value_type);

int
GpuSim::createStream(double priority_weight)
{
    if (!(std::isfinite(priority_weight) && priority_weight > 0.0))
        fatal("createStream: priority weight must be positive and "
              "finite");
    streams_.emplace_back();
    streams_.back().weight = priority_weight;
    fill_.resize(streams_.size());
    return static_cast<int>(streams_.size()) - 1;
}

void
GpuSim::ShareScratch::resize(std::size_t n)
{
    for (auto *v : {&exec, &open, &still})
        v->resize(n);
    for (auto *v : {&sm_caps, &prio, &sm_grant, &tcomp, &wave,
                    &bw_caps, &bw_grant, &share})
        v->resize(n);
}

std::size_t
GpuSim::ShareScratch::bytesReserved() const
{
    std::size_t bytes = 0;
    for (const auto *v : {&exec, &open, &still})
        bytes += v->capacity() * sizeof(std::size_t);
    for (const auto *v : {&sm_caps, &prio, &sm_grant, &tcomp, &wave,
                          &bw_caps, &bw_grant, &share})
        bytes += v->capacity() * sizeof(double);
    return bytes;
}

std::int32_t
GpuSim::acquireOp(OpKind kind, std::size_t backlog)
{
    std::int32_t idx = ops_.acquire();
    // Recycled slots hold the previous tenant's fields: reset all.
    ops_[idx] = Op{};
    ops_[idx].kind = kind;
    ops_enqueued_++;
    backlog_ += backlog;
    return idx;
}

std::int32_t
GpuSim::internTag(const std::string &tag)
{
    auto it = tag_ids_.find(tag);
    if (it != tag_ids_.end())
        return it->second;
    const auto id = kFixedTags + static_cast<std::int32_t>(tags_.size());
    it = tag_ids_.emplace(tag, id).first;
    tags_.push_back(&it->first);
    return id;
}

const std::string &
GpuSim::tagName(std::int32_t tag) const
{
    return tag < kFixedTags
               ? kFixedTagNames[tag]
               : *tags_[static_cast<std::size_t>(tag - kFixedTags)];
}

void
GpuSim::pushOp(int stream, std::int32_t op_idx)
{
    Stream &st = streams_.at(static_cast<std::size_t>(stream));
    if (st.tail == -1)
        st.head = op_idx;
    else
        ops_[st.tail].next = op_idx;
    st.tail = op_idx;
    if (!st.busy)
        markReady(stream);
}

std::int32_t
GpuSim::popHead(Stream &st)
{
    const std::int32_t idx = st.head;
    st.head = ops_[idx].next;
    if (st.head == -1)
        st.tail = -1;
    return idx;
}

void
GpuSim::markReady(std::int32_t stream)
{
    Stream &st = streams_[static_cast<std::size_t>(stream)];
    if (!st.in_ready) {
        st.in_ready = true;
        ready_.push_back(stream);
    }
}

KernelList
GpuSim::resolveKernels(int stream,
                       std::span<const KernelDesc *const> kernels) const
{
    const double w = streams_.at(static_cast<std::size_t>(stream)).weight;
    KernelList list;
    list.sim_ = this;
    list.stream_ = stream;
    list.kernels_.reserve(kernels.size());
    for (const KernelDesc *k : kernels) {
        ResolvedKernel &r = list.kernels_.emplace_back();
        r.desc = k;
        r.timing = timingOf(*k);
        r.solo = soloShareOf(r.timing, w);
    }
    return list;
}

void
GpuSim::launchKernels(const KernelList &list)
{
    if (list.sim_ != this)
        fatal("launchKernels: list resolved by another simulator");
    const std::size_t n = list.kernels_.size();
    if (n == 0)
        return;
    const std::int32_t idx = acquireOp(OpKind::kKernel, n);
    Op &op = ops_[idx];
    op.kernel = list.kernels_.data();
    op.end = op.kernel + n;
    pushOp(list.stream_, idx);
    m_kernel_launches_.add(static_cast<std::int64_t>(n));
}

void
GpuSim::enqueueCopy(OpKind kind, int stream, std::uint64_t bytes,
                    int transfers, const std::string &tag, bool pinned)
{
    std::int32_t idx = acquireOp(kind);
    Op &op = ops_[idx];
    op.bytes = bytes;
    op.transfers = transfers;
    op.pinned = pinned;
    op.tag = internTag(tag);
    pushOp(stream, idx);
}

void
GpuSim::memcpyH2D(int stream, std::uint64_t bytes, int transfers,
                  const std::string &tag, bool pinned)
{
    enqueueCopy(OpKind::kMemcpyH2D, stream, bytes, transfers, tag,
                pinned);
}

void
GpuSim::memcpyD2H(int stream, std::uint64_t bytes, int transfers,
                  const std::string &tag, bool pinned)
{
    enqueueCopy(OpKind::kMemcpyD2H, stream, bytes, transfers, tag,
                pinned);
}

void
GpuSim::hostDelay(int stream, double seconds)
{
    std::int32_t idx = acquireOp(OpKind::kDelay);
    Op &op = ops_[idx];
    op.delay_s = seconds;
    op.tag = kTagHostDelay;
    pushOp(stream, idx);
}

void
GpuSim::delayUntil(int stream, double seconds)
{
    std::int32_t idx = acquireOp(OpKind::kDelay);
    Op &op = ops_[idx];
    op.delay_s = seconds;
    op.delay_until = true;
    op.tag = kTagReleaseAt;
    pushOp(stream, idx);
}

void
GpuSim::waitEvent(int stream, EventId event)
{
    if (event < 0 ||
        static_cast<std::size_t>(event) >= event_times_.size())
        fatal("waitEvent: unknown event ", event);
    std::int32_t idx = acquireOp(OpKind::kWaitEvent);
    Op &op = ops_[idx];
    op.event = event;
    op.tag = kTagWaitEvent;
    pushOp(stream, idx);
}

EventId
GpuSim::recordEvent(int stream)
{
    EventId id = static_cast<EventId>(event_times_.size());
    event_times_.push_back(-1.0);
    std::int32_t idx = acquireOp(OpKind::kMarker);
    ops_[idx].event = id;
    pushOp(stream, idx);
    return id;
}

double
GpuSim::eventSeconds(EventId id) const
{
    double t = event_times_.at(static_cast<std::size_t>(id));
    if (t < 0.0)
        fatal("eventSeconds: event ", id, " has not completed");
    return t;
}

void
GpuSim::resetStats()
{
    win_start_ = now_;
    sm_busy_integral_ = 0.0;
    gpu_busy_s_ = 0.0;
    copy_busy_s_ = 0.0;
    dram_bytes_win_ = 0.0;
}

UtilStats
GpuSim::stats() const
{
    UtilStats s;
    s.window_s = now_ - win_start_;
    s.sm_busy_integral = sm_busy_integral_;
    s.gpu_busy_s = gpu_busy_s_;
    s.copy_busy_s = copy_busy_s_;
    s.dram_bytes = dram_bytes_win_;
    return s;
}

SimStats
GpuSim::simStats() const
{
    SimStats s;
    s.events = events_;
    s.ops_enqueued = ops_enqueued_;
    s.ops_completed = ops_completed_;
    s.trace_records = trace_records_;
    s.solo_kernels = solo_kernels_;
    s.fill_memo_hits = fill_memo_.hits;
    s.fill_memo_clears = fill_memo_.clears;
    s.fill_memo_bytes =
        fill_memo_.slots.capacity() * sizeof(FillMemo::Slot) +
        fill_memo_.shares.capacity() * sizeof(std::array<Share, 2>) +
        memo_ids_.size() * kFillMemoIdBytes;
    s.simulated_s = now_;
    // Interned tags count their table entries, map nodes and
    // heap-held characters.
    std::size_t tag_bytes =
        tags_.capacity() * sizeof(const std::string *) +
        tag_ids_.bucket_count() * sizeof(void *);
    for (const std::string *t : tags_)
        tag_bytes += sizeof(decltype(tag_ids_)::value_type) +
                     sizeof(void *) + t->capacity();
    s.arena_bytes =
        ops_.bytesReserved() +
        tag_bytes +
        trace_.capacity() * sizeof(OpRecord) +
        delay_heap_.capacity() * sizeof(DelayEntry) +
        copy_ring_.bytesReserved() +
        active_.capacity() * sizeof(ActiveKernel) +
        event_times_.capacity() * sizeof(double) +
        wait_list_.capacity() * sizeof(EventWaiter) +
        fill_.bytesReserved() + s.fill_memo_bytes +
        (batch_stall_us_.capacity() + batch_waste_pct_.capacity()) *
            sizeof(double);
    return s;
}

void
publishSimMetrics(const SimStats &stats, const obs::Labels &labels)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    reg.gauge("sim.events", labels)
        .set(static_cast<double>(stats.events));
    reg.gauge("sim.solo_kernels", labels)
        .set(static_cast<double>(stats.solo_kernels));
    reg.gauge("sim.arena.bytes", labels)
        .set(static_cast<double>(stats.arena_bytes));
    reg.gauge("sim.simulated_seconds", labels).set(stats.simulated_s);
}

void
GpuSim::setTraceMode(TraceMode mode, int sample_every)
{
    trace_mode_ = mode;
    trace_sample_ = sample_every < 1 ? 1 : sample_every;
}

void
GpuSim::reserveTraceForOps(std::size_t ops)
{
    if (trace_mode_ == TraceMode::kFull)
        trace_.reserve(trace_.size() + ops);
    else if (trace_mode_ == TraceMode::kSampled)
        trace_.reserve(trace_.size() +
                       ops / static_cast<std::size_t>(trace_sample_) +
                       1);
}

bool
GpuSim::streamIdle(int stream) const
{
    const Stream &st = streams_.at(static_cast<std::size_t>(stream));
    return st.head == -1 && !st.busy;
}

void
GpuSim::setTimingJitter(double rel_std, std::uint64_t seed)
{
    jitter_std_ = rel_std;
    jitter_state_ = seed;
}

double
GpuSim::jitterFactor()
{
    if (jitter_std_ <= 0.0)
        return 1.0;
    Rng rng(mix64(jitter_state_++));
    return std::max(0.5, 1.0 + rng.gaussian(0.0, jitter_std_));
}

void
GpuSim::startCopyIfIdle()
{
    if (copy_.valid || copy_ring_.empty())
        return;
    CopyEntry ce = copy_ring_.front();
    copy_ring_.pop();
    const Op &op = ops_[ce.op_idx];
    copy_.op_idx = ce.op_idx;
    copy_.stream = ce.stream;
    copy_.start_s = now_;
    double dur = memcpySeconds(spec_, op.bytes, op.transfers);
    if (op.pinned) {
        // Pre-pinned ring buffers skip the pageable staging path.
        double full_overhead = spec_.h2d_transfer_overhead_us * 1e-6 *
                               std::max(1, op.transfers);
        dur -= full_overhead * 0.9;
    }
    dur += profiling_us_ * 1e-6 *
           static_cast<double>(std::max(1, op.transfers));
    copy_.end_s = now_ + dur * jitterFactor();
    copy_.valid = true;
}

void
GpuSim::wakeWaiters(EventId id)
{
    // Resume every stream parked on this event, oldest wait first
    // (wait_list_ is insertion-ordered). finishOp re-marks streams
    // with queued work ready; admitReady's batch loop picks them up
    // in the same pass.
    std::size_t out = 0;
    for (std::size_t i = 0; i < wait_list_.size(); i++) {
        if (wait_list_[i].event == id) {
            const EventWaiter w = wait_list_[i];
            finishOp(w.op_idx, w.stream, w.start_s);
        } else {
            wait_list_[out++] = wait_list_[i];
        }
    }
    wait_list_.resize(out);
}

void
GpuSim::admitReady()
{
    // Waking an event waiter mid-pass re-marks its stream ready, so
    // each pass iterates a swapped-out batch and loops until no new
    // streams appear. Without waits this is one pass over the same
    // ascending stream order as the historical full scan (admission
    // order fixes the jitter draw sequence and the active-list
    // order, both observable in timing).
    while (!ready_.empty()) {
        if (ready_.size() > 1)
            std::sort(ready_.begin(), ready_.end());
        scratch_ready_.clear();
        scratch_ready_.swap(ready_);
        for (std::int32_t si : scratch_ready_) {
            Stream &st = streams_[static_cast<std::size_t>(si)];
            st.in_ready = false;
            while (!st.busy && st.head != -1) {
                if (ops_[st.head].kind == OpKind::kKernel) {
                    // A kernel span stays at the head while its
                    // kernels run: admit the one under its cursor.
                    admitKernel(st.head, si);
                    st.busy = true;
                    break;
                }
                const std::int32_t idx = popHead(st);
                const Op &head = ops_[idx];
                if (head.kind == OpKind::kMarker) {
                    EventId ev = head.event;
                    event_times_.at(static_cast<std::size_t>(ev)) =
                        now_;
                    ops_.release(idx);
                    backlog_--;
                    if (!wait_list_.empty())
                        wakeWaiters(ev);
                    continue;
                }
                if (head.kind == OpKind::kWaitEvent) {
                    double t = event_times_.at(
                        static_cast<std::size_t>(head.event));
                    if (t >= 0.0) {
                        // Dependency already satisfied: retire for
                        // free and keep draining the stream.
                        finishOp(idx, si, now_);
                        continue;
                    }
                    EventWaiter w;
                    w.event = head.event;
                    w.op_idx = idx;
                    w.stream = si;
                    w.start_s = now_;
                    wait_list_.push_back(w);
                    st.busy = true;
                    continue;
                }
                if (head.kind == OpKind::kDelay) {
                    DelayEntry de;
                    de.op_idx = idx;
                    de.stream = si;
                    de.start_s = now_;
                    de.end_s = head.delay_until
                                   ? std::max(now_, head.delay_s)
                                   : now_ + head.delay_s;
                    de.seq = delay_seq_++;
                    delay_heap_.push_back(de);
                    std::push_heap(delay_heap_.begin(),
                                   delay_heap_.end(), DelayAfter{});
                } else {
                    copy_ring_.push(CopyEntry{idx, si});
                }
                st.busy = true;
            }
        }
    }
    startCopyIfIdle();
}

KernelTiming
GpuSim::timingOf(const KernelDesc &k) const
{
    KernelTiming t;
    t.has_flops = k.flops > 0;
    t.grid_blocks = k.grid_blocks;
    t.grid_d = static_cast<double>(k.grid_blocks);
    t.maxb_d = static_cast<double>(k.max_blocks_per_sm);
    t.flops_d = static_cast<double>(k.flops);
    t.per_sm_flops = spec_.smFlopsPerCycle(k.tensor_core) *
                     spec_.gpu_clock_ghz * 1e9 *
                     std::max(1e-3, k.efficiency);
    t.sm_cap = std::min(sm_count_d_, t.grid_d);
    t.has_dram = k.dram_bytes > 0;
    t.dram_d = static_cast<double>(k.dram_bytes);
    t.mem_s = kernelMemSeconds(spec_, k);
    return t;
}

void
GpuSim::admitKernel(std::int32_t op_idx, std::int32_t stream)
{
    ActiveKernel ak;
    ak.op_idx = op_idx;
    ak.stream = stream;
    ak.start_s = now_;
    ak.launch_remaining_s =
        (spec_.kernel_launch_us + profiling_us_) * 1e-6;
    ak.jitter = jitterFactor();
    ak.kernel = ops_[op_idx].kernel;
    active_.push_back(ak);
}

void
GpuSim::waterFillInto(std::size_t n, const double *caps,
                      double capacity, const double *weights,
                      double *grant)
{
    // Weighted max-min fair allocation of `capacity` among n consumers
    // with per-consumer caps and priority weights; grants sum to at
    // most capacity and never exceed caps. Same algorithm — and the
    // same FP operation order — as the original free function. An
    // open consumer has been granted nothing (a grant is written only
    // when its consumer leaves the open set), so its headroom is
    // exactly its cap and its final grant exactly its share.
    std::size_t *open = fill_.open.data();
    std::size_t *still = fill_.still.data();
    double *share = fill_.share.data();
    std::size_t n_open = 0;
    for (std::size_t i = 0; i < n; i++) {
        grant[i] = 0.0;
        if (caps[i] > 0.0)
            open[n_open++] = i;
    }

    double remaining = capacity;
    while (n_open > 0 && remaining > 1e-15) {
        double weight_sum = 0.0;
        for (std::size_t k = 0; k < n_open; k++)
            weight_sum += weights[open[k]];
        bool any_capped = false;
        for (std::size_t k = 0; k < n_open; k++) {
            share[k] = remaining * weights[open[k]] / weight_sum;
            if (caps[open[k]] <= share[k])
                any_capped = true;
        }
        if (!any_capped) {
            for (std::size_t k = 0; k < n_open; k++)
                grant[open[k]] = share[k];
            return;
        }
        // Saturate capped consumers, then redistribute. The share is
        // re-derived from the shrinking remainder, so a consumer capped
        // against the round's first share may stay open for the next.
        std::size_t n_still = 0;
        for (std::size_t k = 0; k < n_open; k++) {
            std::size_t i = open[k];
            if (caps[i] <= remaining * weights[i] / weight_sum) {
                remaining -= caps[i];
                grant[i] = caps[i];
            } else {
                still[n_still++] = i;
            }
        }
        std::swap(open, still);
        n_open = n_still;
    }
}

inline double
GpuSim::bandwidthDemand(const KernelTiming &t, double sm_grant,
                        double *wave, double *t_comp)
{
    // Demand derives from the pace the kernel would sustain at its SM
    // grant. kernelComputeSeconds and waveFactor are inlined on the
    // cached invariants (identical FP expression order). The wave
    // factor is also what shareOf needs — min(alloc, grid) equals
    // min(max(grant, 1e-6), grid) — so it is computed once.
    double alloc = std::max(sm_grant, 1e-6);
    double usable = std::min(alloc, t.grid_d);
    double conc = usable * t.maxb_d;
    *wave = 1.0;
    if (!(t.grid_blocks <= 0 || conc <= 0.0 || t.grid_d <= conc)) {
        double ideal = t.grid_d / conc;
        *wave = std::ceil(ideal) / ideal;
    }
    *t_comp = 0.0;
    if (t.has_flops)
        *t_comp = t.flops_d / (usable * t.per_sm_flops) * *wave;
    if (!t.has_dram)
        return 0.0;
    double unconstrained = std::max(*t_comp, t.mem_s);
    return t.dram_d / std::max(unconstrained, 1e-12);
}

inline Share
GpuSim::shareOf(const KernelTiming &t, double sm_grant, double wave,
                double t_comp, double bw_grant)
{
    Share s;
    double t_mem = 0.0;
    if (t.has_dram)
        t_mem = t.dram_d / std::max(bw_grant, 1e-3);
    s.raw_dur = std::max(t_comp, t_mem);
    s.alloc_sms = sm_grant;
    // Tail waves leave some of the allocated SMs idle on average;
    // this is what caps tegrastats-style utilization in the paper's
    // Figures 3/4 at ~82-86%.
    s.wave_util = 1.0 / wave;
    // GR3D counts issue-active cycles: memory-stall time while
    // resident discounts the reported load.
    s.issue_act =
        s.raw_dur > 0.0 ? std::min(1.0, t_comp / s.raw_dur) : 1.0;
    return s;
}

inline void
GpuSim::applyShare(ActiveKernel &ak, const Share &s)
{
    ak.exec_duration_s = std::max(s.raw_dur * ak.jitter, kTimeEps);
    ak.alloc_sms = s.alloc_sms;
    ak.wave_util = s.wave_util;
    ak.issue_act = s.issue_act;
}

Share
GpuSim::soloShareOf(const KernelTiming &t, double weight) const
{
    // The n = 1 water-fill is one round: each grant is min(cap,
    // capacity * w / w), the exact double waterFillInto's loop gives.
    // The w / w is kept, since it need not round back to 1.
    auto fill = [weight](double cap, double capacity) {
        if (!(cap > 0.0 && capacity > 1e-15))
            return 0.0;
        const double share = capacity * weight / weight;
        return cap <= share ? cap : share;
    };
    const double sm_grant = fill(t.sm_cap, sm_count_d_);
    double wave = 1.0;
    double t_comp = 0.0;
    const double bw_cap = bandwidthDemand(t, sm_grant, &wave, &t_comp);
    return shareOf(t, sm_grant, wave, t_comp, fill(bw_cap, eff_dram_bps_));
}

std::uint16_t
GpuSim::memoIdOf(const ResolvedKernel &kernel, double weight)
{
    // An id names content, not storage: a list resolved into a freed
    // list's memory starts with fresh entries (id 0), and equal content
    // shares one id. Every field and the weight are compared as bits.
    const KernelTiming &t = kernel.timing;
    if (t.memo_id != 0)
        return t.memo_id;
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    const std::array<std::uint64_t, 10> key = {
        (t.has_flops ? 1u : 0u) | (t.has_dram ? 2u : 0u),
        static_cast<std::uint64_t>(t.grid_blocks),
        bits(t.grid_d),
        bits(t.maxb_d),
        bits(t.flops_d),
        bits(t.per_sm_flops),
        bits(t.sm_cap),
        bits(t.dram_d),
        bits(t.mem_s),
        bits(weight)};
    auto it = memo_ids_.find(key);
    if (it == memo_ids_.end()) {
        if (memo_ids_.size() == kNoMemoId - 1u)
            return t.memo_id = kNoMemoId;
        const auto id = static_cast<std::uint16_t>(memo_ids_.size() + 1);
        it = memo_ids_.emplace(key, id).first;
    }
    return t.memo_id = it->second;
}

GpuSim::FillMemo::Slot &
GpuSim::FillMemo::probe(std::uint32_t key)
{
    if (slots.empty()) {
        slots.resize(kSlots);
        shares.reserve(kEntries);
    }
    // Fibonacci hashing: the top kSlotBits bits of key * 2^32 / phi.
    std::size_t i = (key * 0x9E3779B1u) >> (32 - kSlotBits);
    while (slots[i].key != 0 && slots[i].key != key)
        i = (i + 1) & (kSlots - 1);
    return slots[i];
}

void
GpuSim::FillMemo::insert(Slot &slot, std::uint32_t key,
                         const std::array<Share, 2> &pair)
{
    Slot *s = &slot;
    if (shares.size() == kEntries) {
        // Start over rather than evict: the table stays at most half
        // full, so probe chains stay short.
        std::fill(slots.begin(), slots.end(), Slot{});
        shares.clear();
        clears++;
        s = &probe(key);
    }
    s->key = key;
    s->entry = static_cast<std::uint32_t>(shares.size());
    shares.push_back(pair);
}

void
GpuSim::recomputeShares()
{
    // Gather the executing kernels. SM allocation: weighted max-min
    // fair, capped by each kernel's block count (a 3-block grid
    // cannot occupy 6 SMs). Weights come from the owning stream's
    // priority.
    ShareScratch &f = fill_;
    std::size_t n = 0;
    for (std::size_t i = 0; i < active_.size(); i++) {
        const ActiveKernel &ak = active_[i];
        if (!ak.in_exec)
            continue;
        f.exec[n] = i;
        f.sm_caps[n] = ak.kernel->timing.sm_cap;
        f.prio[n] =
            streams_[static_cast<std::size_t>(ak.stream)].weight;
        n++;
    }
    if (n == 0)
        return;
    if (n == 1) {
        ActiveKernel &ak = active_[f.exec[0]];
        applyShare(ak, ak.kernel->solo);
        return;
    }
    // Two executing kernels are what contending streams repeat: their
    // fill is looked up in the memo, keyed on the ordered pair of ids
    // (the saturate pass reads the remainder in executing order), and
    // a miss is computed below and stored. Larger sets rarely repeat,
    // so they always compute.
    FillMemo::Slot *slot = nullptr;
    std::uint32_t key = 0;
#ifndef EDGERT_GPUSIM_REFERENCE
    if (n == 2) {
        const std::uint16_t a =
            memoIdOf(*active_[f.exec[0]].kernel, f.prio[0]);
        const std::uint16_t b =
            memoIdOf(*active_[f.exec[1]].kernel, f.prio[1]);
        if (a != kNoMemoId && b != kNoMemoId) {
            key = std::uint32_t{a} << 16 | b;
            slot = &fill_memo_.probe(key);
            if (slot->key == key) {
                const std::array<Share, 2> &pair =
                    fill_memo_.shares[slot->entry];
                applyShare(active_[f.exec[0]], pair[0]);
                applyShare(active_[f.exec[1]], pair[1]);
                fill_memo_.hits++;
                return;
            }
        }
    }
#endif
    waterFillInto(n, f.sm_caps.data(), sm_count_d_, f.prio.data(),
                  f.sm_grant.data());
    for (std::size_t j = 0; j < n; j++)
        f.bw_caps[j] =
            bandwidthDemand(active_[f.exec[j]].kernel->timing,
                            f.sm_grant[j], &f.wave[j], &f.tcomp[j]);
    waterFillInto(n, f.bw_caps.data(), eff_dram_bps_, f.prio.data(),
                  f.bw_grant.data());
    std::array<Share, 2> pair;
    for (std::size_t j = 0; j < n; j++) {
        ActiveKernel &ak = active_[f.exec[j]];
        const Share s = shareOf(ak.kernel->timing, f.sm_grant[j],
                                f.wave[j], f.tcomp[j], f.bw_grant[j]);
        applyShare(ak, s);
        if (slot)
            pair[j] = s;
    }
    if (slot)
        fill_memo_.insert(*slot, key, pair);
}

double
GpuSim::nextEventDt() const
{
    double dt = std::numeric_limits<double>::infinity();
    for (const auto &ak : active_)
        dt = std::min(dt, ak.remainingSeconds());
    if (copy_.valid)
        dt = std::min(dt, copy_.end_s - now_);
    // The calendar's min end time is exactly the min the old full
    // scan found: subtracting the same now_ preserves order.
    if (!delay_heap_.empty())
        dt = std::min(dt, delay_heap_.front().end_s - now_);
    return std::max(dt, 0.0);
}

void
GpuSim::advance(double dt)
{
    bool any_exec = false;
    double sm_alloc = 0.0;
    for (auto &ak : active_) {
        if (ak.in_exec) {
            double dfrac = dt / ak.exec_duration_s;
            dfrac = std::min(dfrac, 1.0 - ak.frac_done);
            ak.frac_done += dfrac;
            sm_alloc += ak.alloc_sms * ak.wave_util *
                        (0.25 + 0.75 * ak.issue_act);
            dram_bytes_win_ += dfrac * ak.kernel->timing.dram_d;
            any_exec = true;
        } else {
            ak.launch_remaining_s =
                std::max(0.0, ak.launch_remaining_s - dt);
        }
    }
    sm_busy_integral_ += sm_alloc * dt;
    if (any_exec)
        gpu_busy_s_ += dt;
    if (copy_.valid)
        copy_busy_s_ += dt;
    now_ += dt;
    events_++;
}

void
GpuSim::recordOp(const Op &op, std::int32_t stream, double start_s)
{
    bool record = trace_mode_ == TraceMode::kFull ||
                  (trace_mode_ == TraceMode::kSampled &&
                   ops_completed_ %
                           static_cast<std::uint64_t>(
                               trace_sample_) ==
                       0);
    ops_completed_++;
    if (record) {
        trace_.emplace_back();
        OpRecord &rec = trace_.back();
        rec.kind = op.kind;
        rec.stream = stream;
        rec.start_s = start_s;
        rec.end_s = now_;
        rec.bytes = op.bytes;
        if (op.kind == OpKind::kKernel) {
            rec.name = op.kernel->desc->name;
            rec.kernel = *op.kernel->desc;
        } else if (op.tag >= 0) {
            rec.name = tagName(op.tag);
        }
        trace_records_++;
    }
}

void
GpuSim::finishOp(std::int32_t op_idx, std::int32_t stream,
                 double start_s)
{
    const Op &op = ops_[op_idx];
    recordOp(op, stream, start_s);
    if (op.kind == OpKind::kMemcpyH2D) {
        m_memcpy_bytes_h2d_.add(
            static_cast<std::int64_t>(op.bytes));
        m_memcpy_chunks_h2d_.add(op.transfers);
    } else if (op.kind == OpKind::kMemcpyD2H) {
        m_memcpy_bytes_d2h_.add(
            static_cast<std::int64_t>(op.bytes));
        m_memcpy_chunks_d2h_.add(op.transfers);
    }
    Stream &st = streams_[static_cast<std::size_t>(stream)];
    st.busy = false;
    if (st.head != -1)
        markReady(stream);
    ops_.release(op_idx);
    backlog_--;
}

void
GpuSim::completeFinished()
{
    // Phase transitions: launch done -> execution begins.
    for (auto &ak : active_) {
        if (!ak.in_exec && ak.launch_remaining_s <= kTimeEps) {
            ak.in_exec = true;
            shares_dirty_ = true;
        }
    }
    // Kernel completions.
    for (std::size_t i = 0; i < active_.size();) {
        const ActiveKernel &ak = active_[i];
        if (ak.in_exec && ak.frac_done >= 1.0 - kFracEps) {
            retireKernel(i);
            shares_dirty_ = true;
        } else {
            i++;
        }
    }
    // Copy completion.
    if (copy_.valid && copy_.end_s <= now_ + kTimeEps) {
        finishOp(copy_.op_idx, copy_.stream, copy_.start_s);
        copy_.valid = false;
        startCopyIfIdle();
    }
    // Delay completions: pop every expired calendar entry, then
    // retire them oldest-insertion-first — exactly the order the
    // old insertion-ordered list walk produced.
    if (!delay_heap_.empty() &&
        delay_heap_.front().end_s <= now_ + kTimeEps) {
        scratch_expired_.clear();
        while (!delay_heap_.empty() &&
               delay_heap_.front().end_s <= now_ + kTimeEps) {
            scratch_expired_.push_back(delay_heap_.front());
            std::pop_heap(delay_heap_.begin(), delay_heap_.end(),
                          DelayAfter{});
            delay_heap_.pop_back();
        }
        std::sort(scratch_expired_.begin(), scratch_expired_.end(),
                  [](const DelayEntry &a, const DelayEntry &b) {
                      return a.seq < b.seq;
                  });
        for (const DelayEntry &de : scratch_expired_)
            finishOp(de.op_idx, de.stream, de.start_s);
    }
}

void
GpuSim::finishKernel(const ActiveKernel &ak)
{
    // Stall time = exec time spent memory-blocked rather than
    // issuing; waste = idle fraction of allocated SMs in the tail
    // wave.
    double stall_us = (1.0 - ak.issue_act) * ak.exec_duration_s * 1e6;
    batch_stall_us_.push_back(stall_us);
    batch_waste_pct_.push_back((1.0 - ak.wave_util) * 100.0);
    if (batch_stall_us_.size() == kKernelSampleBatch)
        flushKernelSamples();
    Op &op = ops_[ak.op_idx];
    recordOp(op, ak.stream, ak.start_s);
    backlog_--;
    // The span leaves its stream's head with its last kernel.
    if (++op.kernel == op.end) {
        popHead(streams_[static_cast<std::size_t>(ak.stream)]);
        ops_.release(ak.op_idx);
    }
}

void
GpuSim::retireKernel(std::size_t i)
{
    const std::int32_t si = active_[i].stream;
    finishKernel(active_[i]);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    Stream &st = streams_[static_cast<std::size_t>(si)];
    st.busy = false;
    if (st.head != -1)
        markReady(si);
}

void
GpuSim::runSolo(double horizon)
{
    // Entered from step() with one active kernel, the copy engine idle
    // and its ring empty, right after admitReady drained every ready
    // stream: until a calendar entry comes due, no other stream can
    // become runnable. Each iteration is exactly one generic step —
    // the same dt, advance and retirement — minus the scaffolding
    // that has nothing to do. The successor is the next kernel of the
    // span, or after its last one the first kernel of a span queued
    // right behind it. Anything else returns to the generic step: a
    // retirement whose successor is not a kernel (a marker, copy,
    // delay, wait or nothing), a calendar entry due by the end of the
    // step, or the horizon.
    for (;;) {
        ActiveKernel &ak = active_.front();
        if (ak.in_exec) {
            const Op &span = ops_[ak.op_idx];
            if (ak.kernel + 1 == span.end &&
                (span.next == -1 ||
                 ops_[span.next].kind != OpKind::kKernel))
                return;
        }
        // nextEventDt for this state: its min over the calendar
        // front is the kernel's own dt whenever the loop goes on.
        const double dt = std::max(ak.remainingSeconds(), 0.0);
        if (!delay_heap_.empty()) {
            const double end_s = delay_heap_.front().end_s;
            if (!(dt < end_s - now_) || end_s <= now_ + dt + kTimeEps)
                return;
        }
        if (!(now_ + dt < horizon))
            return;
        advance(dt);

        if (!ak.in_exec) {
            // The generic step would mark the fill dirty here and
            // recompute it, over this one kernel, at the next step.
            if (ak.launch_remaining_s <= kTimeEps) {
                ak.in_exec = true;
                applyShare(ak, ak.kernel->solo);
            }
        } else if (ak.frac_done >= 1.0 - kFracEps) {
            // The generic step would retire the kernel, queue the
            // stream on ready_ and have admitReady admit its head
            // span's cursor kernel: admit it in place, the stream
            // staying busy. The fill that step would rerun next covers
            // no executing kernel: the successor is still launching.
            const std::int32_t si = ak.stream;
            finishKernel(ak);
            solo_kernels_++;
            active_.clear();
            admitKernel(streams_[static_cast<std::size_t>(si)].head, si);
        }
    }
}

bool
GpuSim::step(double horizon)
{
    admitReady();
    // The water-fill is a pure function of the executing set, so it
    // only needs to rerun when that set changed; skipped steps keep
    // bit-identical durations/allocations.
    if (shares_dirty_) {
        recomputeShares();
        shares_dirty_ = false;
    }
    if (active_.size() == 1 && !copy_.valid && copy_ring_.empty())
        runSolo(horizon);
    bool idle = active_.empty() && delay_heap_.empty() &&
                !copy_.valid && copy_ring_.empty();
    if (idle) {
        bool pending = false;
        for (const auto &st : streams_)
            if (st.head != -1 || st.busy)
                pending = true;
        if (!pending)
            return false;
        panic("GpuSim deadlock: streams pending but nothing active");
    }
    double dt = nextEventDt();
    if (!std::isfinite(dt))
        panic("GpuSim: no next event while ops active");
    // Pausing here is a no-op on resume: admitReady finds nothing new
    // and the fill is clean, so the next step recomputes this dt.
    if (!(now_ + dt < horizon))
        return false;
    advance(dt);
    completeFinished();
    // Resolve markers that became ready at this timestamp, so
    // runUntilEvent() stops at the event's own completion time.
    admitReady();
    return true;
}

void
GpuSim::run()
{
    // Pre-size the trace for the enqueued backlog so long replays
    // stop paying repeated O(n) vector growth mid-run.
    reserveTraceForOps(backlog_);
    runBefore(std::numeric_limits<double>::infinity());
}

void
GpuSim::runBefore(double horizon)
{
    while (step(horizon)) {
    }
    flushKernelSamples();
}

void
GpuSim::flushKernelSamples()
{
    // One lock per histogram per batch. Each cell receives the same
    // samples in the same order as per-kernel records would have, and
    // every run returns flushed, so sums accumulate identically even
    // when several simulators share a registry.
    m_kernel_stall_us_.recordBatch(batch_stall_us_);
    m_wave_waste_pct_.recordBatch(batch_waste_pct_);
    batch_stall_us_.clear();
    batch_waste_pct_.clear();
}

void
GpuSim::runUntilEvent(EventId id)
{
    const auto pending = [&] {
        return event_times_.at(static_cast<std::size_t>(id)) < 0.0;
    };
    while (pending()) {
        // The step that completes a lone marker also drains the
        // simulator: only a step that leaves the event pending fails.
        if (!step() && pending()) {
            flushKernelSamples();
            fatal("runUntilEvent: simulation drained before event ",
                  id, " completed");
        }
    }
    flushKernelSamples();
}

#ifdef EDGERT_GPUSIM_REFERENCE
} // inline namespace reference
#endif

} // namespace edgert::gpusim

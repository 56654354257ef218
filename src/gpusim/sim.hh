#ifndef EDGERT_GPUSIM_SIM_HH
#define EDGERT_GPUSIM_SIM_HH

/**
 * @file
 * Discrete-event simulator of one embedded GPU.
 *
 * Execution model:
 *  - Any number of streams; ops within a stream are FIFO.
 *  - Kernels from different streams execute concurrently, sharing
 *    SMs by max-min fair water-filling (a kernel can never hold more
 *    SMs than it has blocks) and sharing DRAM bandwidth the same
 *    way. Rates are piecewise constant between events.
 *  - One copy engine serves all memcpys FIFO (Jetson-style iGPU DMA).
 *  - A kernel launch pays a serial CPU-side latency during which it
 *    occupies no SMs; an attached profiler adds further per-op
 *    overhead (this is how Table VIII (with nvprof) and Table IX
 *    (without) differ).
 *
 * The simulator is deterministic and never reads wall-clock time.
 *
 * Hot-path layout (the SimCore overhaul): ops live in a recycled
 * IndexPool and stream FIFOs are intrusive index lists through it;
 * pending host delays sit in a binary-heap event calendar keyed on
 * (completion time, insertion seq); the copy backlog is a ring; and
 * share recomputation is skipped while the executing-kernel set is
 * unchanged (the water-fill is a pure function of that set, so the
 * skip is bit-exact); when it does rerun, it works on scratch arrays
 * sized once per stream. Kernels arrive as a KernelList resolved
 * once for one stream, so admission reads each kernel's invariants
 * and its solo (n = 1) share instead of computing them. While one
 * stream runs alone (one active kernel, copy engine idle), step()
 * retires that stream's consecutive kernels in one tight loop, each
 * iteration exactly one generic step, until a non-kernel head, a due
 * calendar entry or the run horizon sends it back to the generic
 * step. The two per-kernel histogram samples are buffered and
 * recorded in batches, flushed before run(), runBefore() and
 * runUntilEvent() return. All of this changes per-event cost only —
 * the event sequence, every timestamp and every metric value
 * (histogram sums included) are bit-identical to the pre-overhaul
 * simulator.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "gpusim/device.hh"
#include "gpusim/kernel.hh"
#include "obs/metrics.hh"

namespace edgert::gpusim {

/** Identifier of a recorded stream event (cudaEvent analogue). */
using EventId = std::int64_t;

/** Categories of simulated operations. */
enum class OpKind {
    kKernel,
    kMemcpyH2D,
    kMemcpyD2H,
    kMarker,
    kDelay,
    kWaitEvent,
};

/**
 * Completed-op trace retention policy. Long serving runs complete
 * hundreds of thousands of ops; kFull keeps every record (profiler
 * fidelity), kSampled keeps 1 in N (bounded memory, still enough
 * for timeline spot checks), kOff keeps none.
 */
enum class TraceMode { kFull, kSampled, kOff };

/** Completed-operation trace entry (the profiler's raw material). */
struct OpRecord
{
    OpKind kind = OpKind::kKernel;
    std::string name;
    int stream = 0;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t bytes = 0;  //!< memcpy payload
    KernelDesc kernel;        //!< valid when kind == kKernel

    double durationSeconds() const { return end_s - start_s; }
};

/** Aggregated resource-usage statistics since the last reset. */
struct UtilStats
{
    double window_s = 0.0;        //!< simulated span of the window
    double sm_busy_integral = 0.0; //!< SM-seconds of allocation
    double gpu_busy_s = 0.0;      //!< time with >=1 kernel executing
    double copy_busy_s = 0.0;     //!< copy-engine busy time
    double dram_bytes = 0.0;      //!< kernel DRAM traffic in window

    /** tegrastats-style GPU load: SM-weighted busy fraction (%). */
    double smUtilizationPct(int sm_count) const;

    /** Fraction of time any kernel was resident (%). */
    double busyPct() const;
};

/** Self-measurement counters of the simulator itself. */
struct SimStats
{
    std::uint64_t events = 0;        //!< simulation steps executed
    std::uint64_t ops_enqueued = 0;  //!< ops accepted (incl. markers)
    std::uint64_t ops_completed = 0; //!< non-marker ops finished
    std::uint64_t trace_records = 0; //!< records actually retained
    std::uint64_t solo_kernels = 0;  //!< kernels retired by solo runs
    std::size_t arena_bytes = 0;     //!< whole simulator footprint
    double simulated_s = 0.0;        //!< simulated time reached
};

/**
 * Alloc-independent timing inputs of one descriptor on one device;
 * every value is the exact double the old per-step recomputation
 * produced.
 */
struct KernelTiming
{
    bool has_flops = false;
    bool has_dram = false;
    std::int64_t grid_blocks = 0;
    double grid_d = 0.0;        //!< (double)grid_blocks
    double maxb_d = 0.0;        //!< (double)max_blocks_per_sm
    double flops_d = 0.0;
    double per_sm_flops = 0.0;  //!< effective per-SM FLOP rate
    double sm_cap = 0.0;        //!< min(sm_count, grid_blocks)
    double dram_d = 0.0;
    double mem_s = 0.0;         //!< kernelMemSeconds, solo
};

/** One executing kernel's outcome of a share fill. */
struct Share
{
    double alloc_sms = 0.0;
    double wave_util = 1.0;
    double issue_act = 1.0;
    double raw_dur = 0.0; //!< max(t_comp, t_mem), before jitter
};

/** One kernel of a KernelList: its borrowed descriptor and what
 *  admission reads of it. */
struct ResolvedKernel
{
    const KernelDesc *desc = nullptr;
    KernelTiming timing;
    Share solo; //!< the n = 1 water-fill at the list's stream weight
};

class GpuSim;

/**
 * A kernel program resolved for one stream of one simulator
 * (GpuSim::resolveKernels), in launch order. An engine's kernels
 * are fixed, so an ExecutionContext resolves its list once and
 * launches it per inference. Launched ops point into the list's heap
 * storage, which a move keeps in place: the list and its descriptors
 * must outlive the launches that use them. Copying is disabled, so a
 * growing container of lists (or of contexts) moves them rather than
 * copying and destroying the originals under queued launches.
 */
class KernelList
{
  public:
    KernelList() = default;
    KernelList(KernelList &&) = default;
    KernelList &operator=(KernelList &&) = default;
    KernelList(const KernelList &) = delete;
    KernelList &operator=(const KernelList &) = delete;

  private:
    friend class GpuSim;

    const GpuSim *sim_ = nullptr;
    int stream_ = 0;
    std::vector<ResolvedKernel> kernels_;
};

/**
 * The GPU discrete-event simulator.
 */
class GpuSim
{
  public:
    /**
     * @param spec     Device to simulate.
     * @param registry Registry the per-device instrumentation
     *        (gpusim.* counters/histograms) records into; defaults
     *        to the process-wide registry. A replay gives every
     *        simulator a private registry, so devices can simulate on
     *        worker threads without interleaving their records, and
     *        folds them into the global one in device order with
     *        obs::MetricRegistry::mergeFrom (serve::replayPlans).
     */
    explicit GpuSim(const DeviceSpec &spec,
                    obs::MetricRegistry *registry = nullptr);

    /** Retired kernels whose histogram samples are buffered before
     *  one batched record (see flushKernelSamples). */
    static constexpr std::size_t kKernelSampleBatch = 64;

    GpuSim(const GpuSim &) = delete;
    GpuSim &operator=(const GpuSim &) = delete;

    const DeviceSpec &spec() const { return spec_; }

    /**
     * Create a new stream; stream 0 exists by default.
     * @param priority_weight Relative share weight for SM and
     *        bandwidth arbitration (cudaStreamCreateWithPriority
     *        analogue); 1.0 = default priority, larger = favored.
     */
    int createStream(double priority_weight = 1.0);

    /**
     * Resolve `kernels`, in launch order, for `stream`: each entry
     * borrows its descriptor and holds its timing on this device and
     * its solo share at the stream's weight, which createStream fixes.
     * Nothing else enters, so one list serves every later launch.
     */
    KernelList resolveKernels(
        int stream, std::span<const KernelDesc *const> kernels) const;

    /**
     * Enqueue every kernel of `list` on its stream, one op each, in
     * list order. The ops borrow the list's entries: the list and its
     * descriptors must outlive these launches. Fatal if the list was
     * resolved by another simulator.
     */
    void launchKernels(const KernelList &list);

    /**
     * Enqueue a host-to-device copy.
     * @param transfers Number of cudaMemcpy calls this represents.
     * @param tag       Trace name; interned, so repeated tags cost
     *                  no allocation.
     * @param pinned    Copy from a pre-pinned ring buffer (camera
     *                  pipelines); pays ~1/10 the per-transfer
     *                  driver overhead of pageable weight uploads.
     */
    void memcpyH2D(int stream, std::uint64_t bytes, int transfers,
                   const std::string &tag, bool pinned = false);

    /** Enqueue a device-to-host copy. */
    void memcpyD2H(int stream, std::uint64_t bytes, int transfers,
                   const std::string &tag, bool pinned = false);

    /** Record an event that completes when the stream drains to it. */
    EventId recordEvent(int stream);

    /**
     * Hold a stream until a recorded event completes
     * (cudaStreamWaitEvent analogue). If the event has already
     * completed when the stream drains to the wait, it costs
     * nothing; otherwise the stream parks until the owning stream's
     * marker retires, then resumes at that instant. This is the
     * cross-stream dependency primitive that lets an upload stream,
     * a compute stream and a download stream pipeline stages of
     * consecutive frames. Waiting on an event that is never
     * recorded ahead of run() is a deadlock (fatal).
     */
    void waitEvent(int stream, EventId event);

    /**
     * Insert a host-side think-time gap into a stream (models the
     * CPU work between frames of an inference loop: sync, pre/post
     * processing, next-frame enqueue). Occupies no GPU resources.
     */
    void hostDelay(int stream, double seconds);

    /**
     * Hold a stream until the given *absolute* simulated time
     * (cudaStreamWaitEvent-on-a-timer analogue). The op completes at
     * max(seconds, time the stream reaches it), so a serving
     * schedule can pin "dispatch at t" release times: work enqueued
     * behind it never starts early, and a stream still busy past t
     * simply continues back-to-back. Occupies no GPU resources.
     */
    void delayUntil(int stream, double seconds);

    /** Run the simulation until every queue is empty: runBefore(∞)
     *  after pre-sizing the trace for the enqueued backlog. */
    void run();

    /**
     * Run every step whose next event falls strictly before
     * `horizon` (now + dt < horizon), then pause; run() is the
     * horizon = ∞ case of the same loop. Work enqueued during a pause
     * replays exactly as if it had been enqueued before the first
     * run, provided it lands behind queued or in-flight work of its
     * stream (see streamIdle): a stream never reads past its FIFO
     * head, so it cannot tell when its tail was filled. This is how a
     * serving replay feeds each instance one dispatch ahead of its
     * release (serve::replayPlans). Histograms are flushed on return.
     */
    void runBefore(double horizon);

    /** True when `stream` has nothing queued and nothing in flight:
     *  an op enqueued on it now would start at the current time,
     *  not behind earlier work. */
    bool streamIdle(int stream) const;

    /** Run until the given event has completed (fatal on deadlock).
     *  The gpusim.kernel.* histograms count every kernel retired so
     *  far once it returns. */
    void runUntilEvent(EventId id);

    /** Current simulated time in seconds. */
    double nowSeconds() const { return now_; }

    /** Completion time of a recorded event; fatal if still pending. */
    double eventSeconds(EventId id) const;

    /**
     * Extra per-operation overhead while a profiler is attached
     * (0 = profiler detached).
     */
    void setProfilingOverheadUs(double us) { profiling_us_ = us; }
    double profilingOverheadUs() const { return profiling_us_; }

    /**
     * Enable system-noise jitter: every op's duration is scaled by
     * a deterministic, seeded log-ish factor of the given relative
     * stddev (models DVFS residue, OS scheduling and DRAM refresh —
     * the source of the run-to-run stddev the paper reports).
     */
    void setTimingJitter(double rel_std, std::uint64_t seed);

    /** Completed-op trace since the last clearTrace(). */
    const std::vector<OpRecord> &trace() const { return trace_; }
    void clearTrace() { trace_.clear(); }

    /** Move the trace out, leaving it empty (outlives the sim). */
    std::vector<OpRecord> takeTrace() { return std::exchange(trace_, {}); }

    /**
     * Trace retention policy (default kFull, the historical
     * behavior). In kSampled mode every Nth completed op is kept;
     * timing of the simulation itself is unaffected — only what the
     * profiler layer can see afterwards changes.
     */
    void setTraceMode(TraceMode mode, int sample_every = 16);
    TraceMode traceMode() const { return trace_mode_; }
    int traceSampleEvery() const { return trace_sample_; }

    /** Pre-size the trace for `ops` more completed ops under the
     *  current trace mode (all of them in kFull, 1 in N sampled,
     *  none when off). run() reserves this way for its backlog; a
     *  caller that feeds work during pauses (runBefore) reserves for
     *  the whole feed once up front. */
    void reserveTraceForOps(std::size_t ops);

    /** Completed non-marker ops, including ones the trace mode
     *  dropped (the profiler footer's "of T ops" denominator). */
    std::uint64_t opsCompleted() const { return ops_completed_; }

    /** Reset the utilization window to start at the current time. */
    void resetStats();

    /** Utilization statistics for the current window. */
    UtilStats stats() const;

    /** Simulator self-measurement (cumulative). */
    SimStats simStats() const;

  private:
    /**
     * One enqueued op, kept compact (no owned heap memory): a kernel
     * points at its KernelList entry and a copy or delay names its trace
     * tag by index into the interned tag table.
     */
    struct Op
    {
        OpKind kind = OpKind::kKernel;
        std::int32_t tag = -1;      //!< trace tag id (non-kernel ops)
        const ResolvedKernel *kernel = nullptr;
        std::uint64_t bytes = 0;
        EventId event = -1;
        double delay_s = 0.0;
        int transfers = 0;
        std::int32_t next = -1;     //!< intrusive stream-FIFO link
        bool pinned = false;
        bool delay_until = false;   //!< delay_s is an absolute time
    };
    static_assert(sizeof(Op) <= 64, "an op fits one cache line");

    struct Stream
    {
        std::int32_t head = -1; //!< op-pool index FIFO
        std::int32_t tail = -1;
        bool busy = false;  //!< head op dispatched and in flight
        bool in_ready = false; //!< queued in ready_
        double weight = 1.0; //!< arbitration priority weight
    };

    struct ActiveKernel
    {
        std::int32_t op_idx = -1;
        std::int32_t stream = 0;
        double start_s = 0.0;
        double launch_remaining_s = 0.0; //!< serial pre-exec phase
        double frac_done = 0.0;          //!< progress of exec phase
        double exec_duration_s = 0.0;    //!< full exec time @ alloc
        double alloc_sms = 0.0;
        double wave_util = 1.0;          //!< avg fraction of alloc
                                         //!< SMs active (tail waves)
        double issue_act = 1.0;          //!< compute-active fraction
                                         //!< (memory stalls excluded)
        double jitter = 1.0;             //!< system-noise multiplier
        bool in_exec = false;
        const ResolvedKernel *kernel = nullptr; //!< the op's entry

        /** Time to the end of the current phase at current rates. */
        double remainingSeconds() const
        {
            return in_exec ? (1.0 - frac_done) * exec_duration_s
                           : launch_remaining_s;
        }
    };

    struct ActiveCopy
    {
        std::int32_t op_idx = -1;
        std::int32_t stream = 0;
        double start_s = 0.0;
        double end_s = 0.0;
        bool valid = false;
    };

    /**
     * Share-recompute scratch, one slot per stream: a stream holds at
     * most one active kernel, so createStream() sizes these arrays
     * and no recompute allocates or re-initialises them.
     */
    struct ShareScratch
    {
        std::vector<std::size_t> exec; //!< active_ index per consumer
        std::vector<double> sm_caps;
        std::vector<double> prio;
        std::vector<double> sm_grant;
        std::vector<double> tcomp;
        std::vector<double> wave;
        std::vector<double> bw_caps;
        std::vector<double> bw_grant;
        // Water-fill rounds: open consumers, the ones still open after
        // saturation, and each open consumer's share of the round.
        std::vector<std::size_t> open;
        std::vector<std::size_t> still;
        std::vector<double> share;

        void resize(std::size_t n);
        std::size_t bytesReserved() const;
    };

    struct CopyEntry
    {
        std::int32_t op_idx = -1;
        std::int32_t stream = 0;
    };

    /** A stream parked on a not-yet-completed event. */
    struct EventWaiter
    {
        EventId event = -1;
        std::int32_t op_idx = -1;
        std::int32_t stream = 0;
        double start_s = 0.0;
    };

    /** Event-calendar entry of one pending host delay. */
    struct DelayEntry
    {
        double end_s = 0.0;
        std::uint64_t seq = 0; //!< insertion order (FIFO tie-break)
        std::int32_t op_idx = -1;
        std::int32_t stream = 0;
        double start_s = 0.0;
    };

    /** Min-heap order on (end_s, seq). */
    struct DelayAfter
    {
        bool operator()(const DelayEntry &a,
                        const DelayEntry &b) const
        {
            if (a.end_s != b.end_s)
                return a.end_s > b.end_s;
            return a.seq > b.seq;
        }
    };

    /** One simulation step; returns false when fully idle or when
     *  the next event does not fall before `horizon`. */
    bool step(double horizon = std::numeric_limits<double>::infinity());

    std::int32_t acquireOp(OpKind kind);
    std::int32_t internTag(const std::string &tag);
    const std::string &tagName(std::int32_t tag) const;
    void enqueueCopy(OpKind kind, int stream, std::uint64_t bytes,
                     int transfers, const std::string &tag,
                     bool pinned);
    void pushOp(int stream, std::int32_t op_idx);
    void markReady(std::int32_t stream);
    std::int32_t popHead(Stream &st);
    void admitReady();
    void admitKernel(std::int32_t op_idx, std::int32_t stream);
    KernelTiming timingOf(const KernelDesc &k) const;
    Share soloShareOf(const KernelTiming &t, double weight) const;
    void wakeWaiters(EventId id);
    void recomputeShares();
    void waterFillInto(std::size_t n, const double *caps,
                       double capacity, const double *weights,
                       double *grant);
    static double bandwidthDemand(const KernelTiming &t,
                                  double sm_grant, double *wave,
                                  double *t_comp);
    static Share shareOf(const KernelTiming &t, double sm_grant,
                         double wave, double t_comp, double bw_grant);
    static void applyShare(ActiveKernel &ak, const Share &s);
    double jitterFactor();
    double nextEventDt() const;
    void advance(double dt);
    void runSolo(double horizon);
    void completeFinished();
    void retireKernel(std::size_t i);
    void finishOp(std::int32_t op_idx, std::int32_t stream,
                  double start_s);
    void flushKernelSamples();
    void startCopyIfIdle();

    DeviceSpec spec_;
    double sm_count_d_ = 0.0;   //!< (double)spec_.sm_count
    double eff_dram_bps_ = 0.0; //!< spec_.effDramBps()
    double now_ = 0.0;
    std::vector<Stream> streams_;
    IndexPool<Op> ops_;
    // Interned trace tags: each distinct string is stored once, as a
    // map key (node-stable); ops hold its id (see tagName).
    std::unordered_map<std::string, std::int32_t> tag_ids_;
    std::vector<const std::string *> tags_;
    std::vector<std::int32_t> ready_; //!< streams with admittable ops
    std::vector<ActiveKernel> active_;
    std::vector<DelayEntry> delay_heap_; //!< calendar (see DelayAfter)
    std::uint64_t delay_seq_ = 0;
    ActiveCopy copy_;
    RingBuffer<CopyEntry> copy_ring_;
    std::vector<OpRecord> trace_;
    std::vector<double> event_times_;
    std::vector<EventWaiter> wait_list_; //!< parked cross-stream waits
    double profiling_us_ = 0.0;
    double jitter_std_ = 0.0;
    std::uint64_t jitter_state_ = 0;
    bool shares_dirty_ = false; //!< exec set changed since last fill

    TraceMode trace_mode_ = TraceMode::kFull;
    int trace_sample_ = 16;

    // Self-measurement.
    std::uint64_t events_ = 0;
    std::uint64_t ops_enqueued_ = 0;
    std::uint64_t ops_completed_ = 0;
    std::uint64_t trace_records_ = 0;
    std::uint64_t solo_kernels_ = 0;

    ShareScratch fill_;
    std::vector<DelayEntry> scratch_expired_;
    std::vector<std::int32_t> scratch_ready_;

    // Utilization window accumulators.
    double win_start_ = 0.0;
    double sm_busy_integral_ = 0.0;
    double gpu_busy_s_ = 0.0;
    double copy_busy_s_ = 0.0;
    double dram_bytes_win_ = 0.0;

    // Samples of retired kernels awaiting one batched record into
    // m_kernel_stall_us_ / m_wave_waste_pct_ (kKernelSampleBatch
    // capacity each, reserved in the constructor).
    std::vector<double> batch_stall_us_;
    std::vector<double> batch_waste_pct_;

    // Device metrics, labeled {device=<name>} and recorded in
    // simulation order (deterministic). Handles are created once in
    // the constructor; recording is lock-cheap.
    obs::Counter m_kernel_launches_;
    obs::Counter m_memcpy_bytes_h2d_;
    obs::Counter m_memcpy_bytes_d2h_;
    obs::Counter m_memcpy_chunks_h2d_;
    obs::Counter m_memcpy_chunks_d2h_;
    obs::Histogram m_kernel_stall_us_;    //!< DRAM-contention stalls
    obs::Histogram m_wave_waste_pct_;     //!< wave-quantization waste
};

/**
 * Publish one simulator's self-measurement @p stats (a
 * GpuSim::simStats() snapshot, which outlives the simulator) as gauges
 * under @p labels: `sim.events`, `sim.solo_kernels`,
 * `sim.arena.bytes` and `sim.simulated_seconds`. Every value is fixed
 * by the simulation, so the gauges are as reproducible as the report;
 * the host time of a replay lives in its span.
 */
void publishSimMetrics(const SimStats &stats, const obs::Labels &labels);

} // namespace edgert::gpusim

#endif // EDGERT_GPUSIM_SIM_HH

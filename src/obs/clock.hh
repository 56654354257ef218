#ifndef EDGERT_OBS_CLOCK_HH
#define EDGERT_OBS_CLOCK_HH

/**
 * @file
 * Host-side time source for the observability layer.
 *
 * Span timestamps come from this Clock interface rather than from
 * std::chrono directly, so the repo's no-wall-clock-in-simulation
 * rule extends to tests of the observability layer itself: tools and
 * benches run on SteadyClock, tests install a FakeClock and get
 * byte-identical traces across runs. No reading of it reaches the
 * MetricRegistry, and simulated (device) time never flows through
 * here — GpuSim keeps its own virtual clock.
 */

#include <atomic>
#include <cstdint>

namespace edgert::obs {

/** Monotonic nanosecond time source. Implementations are
 *  thread-safe (the parallel builder reads from worker threads). */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Current monotonic timestamp in nanoseconds. */
    virtual std::uint64_t nowNanos() = 0;
};

/** std::chrono::steady_clock-backed time (tools and benches). */
class SteadyClock final : public Clock
{
  public:
    std::uint64_t nowNanos() override;
};

/**
 * Deterministic test clock. Every nowNanos() call returns the
 * current reading and then auto-advances by a fixed step, so spans
 * get nonzero, reproducible durations without any explicit
 * advance() choreography.
 */
class FakeClock final : public Clock
{
  public:
    explicit FakeClock(std::uint64_t start_ns = 0,
                       std::uint64_t auto_step_ns = 1000);

    std::uint64_t nowNanos() override;

    /** Move time forward by @p ns without consuming a reading. */
    void advance(std::uint64_t ns);

    /** Current reading without advancing. */
    std::uint64_t peekNanos() const;

  private:
    std::atomic<std::uint64_t> now_;
    std::uint64_t step_;
};

/** The process-wide clock; a SteadyClock unless overridden. */
Clock &clock();

/**
 * Override the process-wide clock (nullptr restores the default
 * SteadyClock). @return the previous override, or nullptr if the
 * default was active.
 */
Clock *setClock(Clock *c);

/** RAII clock override for tests. */
class ScopedClock
{
  public:
    explicit ScopedClock(Clock *c) : prev_(setClock(c)) {}
    ~ScopedClock() { setClock(prev_); }

    ScopedClock(const ScopedClock &) = delete;
    ScopedClock &operator=(const ScopedClock &) = delete;

  private:
    Clock *prev_;
};

} // namespace edgert::obs

#endif // EDGERT_OBS_CLOCK_HH

#ifndef EDGERT_COMMON_THREADPOOL_HH
#define EDGERT_COMMON_THREADPOOL_HH

/**
 * @file
 * A small fixed-size worker pool for CPU-bound fan-out, used by the
 * engine builder to time tactic candidates in parallel (TensorRT's
 * multi-threaded builder analogue).
 *
 * The pool intentionally has no futures or per-task return values:
 * callers submit void tasks and synchronize with wait(), or use
 * parallelFor() which dispatches indices dynamically and blocks
 * until every index has run. Work items communicate results by
 * writing to disjoint slots the caller owns, which is also what
 * keeps parallel users deterministic — output never depends on the
 * order in which workers pick up indices.
 */

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edgert {

/**
 * Work counters of a ThreadPool. The pool lives in the
 * dependency-free common layer, so rather than publishing metrics
 * itself it exposes this struct. Only deterministic counts belong
 * here: host timings and schedule-dependent figures (which worker ran
 * what, how deep the queue got) would make a user's metric snapshot
 * vary from run to run.
 */
struct PoolStats
{
    std::uint64_t tasks_run = 0; //!< tasks completed so far
};

/**
 * Fixed-size thread pool. Threads start in the constructor and join
 * in the destructor; the pool is reusable across submit/wait rounds.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means defaultThreads().
     */
    explicit ThreadPool(int threads = 0);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /** Worker count matching the host: hardware_concurrency, min 1. */
    static int defaultThreads();

    /** Enqueue one task. Never blocks. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task
     * threw, the first exception (in completion order) is rethrown
     * here and the rest are dropped.
     */
    void wait();

    /**
     * Run body(i) for every i in [0, n), spread across the workers
     * with dynamic index dispatch, and block until all are done.
     * Exceptions propagate as in wait().
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Cumulative counters since construction. */
    PoolStats stats() const;

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< queue became non-empty
    std::condition_variable idle_cv_; //!< a task finished
    std::size_t in_flight_ = 0;       //!< queued + running tasks
    std::uint64_t tasks_run_ = 0;
    std::exception_ptr first_error_;
    bool stop_ = false;
};

} // namespace edgert

#endif // EDGERT_COMMON_THREADPOOL_HH

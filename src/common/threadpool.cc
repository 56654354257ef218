#include "common/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace edgert {

int
ThreadPool::defaultThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
        in_flight_++;
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    if (first_error_) {
        std::exception_ptr e = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // One task per worker, each pulling indices from a shared
    // counter: coarse items load-balance without per-index queue
    // traffic.
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    std::size_t tasks = std::min<std::size_t>(
        n, static_cast<std::size_t>(size()));
    for (std::size_t t = 0; t < tasks; t++)
        submit([next, n, &body] {
            for (std::size_t i = (*next)++; i < n; i = (*next)++)
                body(i);
        });
    wait();
}

PoolStats
ThreadPool::stats() const
{
    std::unique_lock<std::mutex> lock(mu_);
    PoolStats s;
    s.tasks_run = tasks_run_;
    return s;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(
                lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mu_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            in_flight_--;
            tasks_run_++;
        }
        idle_cv_.notify_all();
    }
}

} // namespace edgert

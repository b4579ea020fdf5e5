/**
 * @file
 * A minimal fixed-size thread pool for data-parallel loops and
 * fire-and-collect task submission.
 *
 * Deliberately work-stealing-free: jobs are index ranges handed out from
 * a single atomic cursor, which keeps the implementation small and the
 * result placement deterministic (task i always writes slot i; the
 * *execution* order is unspecified but no output ever depends on it).
 * The calling thread participates in the loop, so a pool of size 1 runs
 * everything inline and a pool is never slower than the serial loop by
 * more than the dispatch overhead.
 *
 * submit() adds a second work source: single future-returning tasks
 * queued FIFO behind any active parallelFor job. Workers prefer the
 * loop (its caller is blocked on it), then drain the task queue; a
 * pool without workers runs the task inline so futures always resolve.
 *
 * Workers start on first use (the first parallelFor with n > 1 or the
 * first submit), not in the constructor: building a pool is free, and
 * a pool that never runs a parallel job never spawns a thread.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace temp {

/// Fixed-size pool executing parallelFor loops; one job at a time.
class ThreadPool
{
  public:
    /// @param threads Total worker count including the calling thread;
    ///        0 means hardware concurrency.
    explicit ThreadPool(int threads = 0)
    {
        // The count is read once per process: glibc re-reads it from
        // /sys on every call, three system calls per pool.
        static const int hardware = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
        thread_count_ = threads > 0 ? threads : hardware;
    }

    /// Drains queued tasks (their futures resolve) before joining.
    ~ThreadPool()
    {
        // Synchronises with a start on another thread (and forbids a
        // late one), so reading workers_ below is race-free.
        std::call_once(start_once_, [] {});
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /// Total threads the pool runs loops on (workers + caller).
    int threadCount() const { return thread_count_; }

    /**
     * Runs fn(0) .. fn(n-1) across the pool and blocks until all
     * complete. Concurrent calls from different threads serialise.
     * The first exception thrown by any iteration is rethrown here.
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        if (n == 0)
            return;
        if (thread_count_ == 1 || n == 1) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        startWorkers();
        std::lock_guard<std::mutex> serial(job_mutex_);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_fn_ = &fn;
            job_n_ = n;
            next_.store(0, std::memory_order_relaxed);
            error_ = nullptr;
        }
        cv_.notify_all();
        runShare(fn, n);
        std::unique_lock<std::mutex> lock(mutex_);
        // Every index is claimed; wait for the workers still running
        // theirs. No worker joins once the cursor is past the end.
        done_cv_.wait(lock, [this] { return joined_ == 0; });
        job_fn_ = nullptr;
        if (error_) {
            std::exception_ptr error = error_;
            error_ = nullptr;
            lock.unlock();
            std::rethrow_exception(error);
        }
    }

    /**
     * Queues one task for asynchronous execution and returns its
     * future. Exceptions propagate through the future. A task may
     * itself call parallelFor on this pool (the calling worker runs its
     * share, so nested use cannot deadlock). When the pool has no
     * workers (size 1) the task runs inline before submit() returns.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        if (thread_count_ == 1) {
            (*task)();
            return future;
        }
        startWorkers();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.push_back([task] { (*task)(); });
        }
        cv_.notify_one();
        return future;
    }

  private:
    /// Spawns the workers once, on the first job that needs them.
    void
    startWorkers()
    {
        std::call_once(start_once_, [this] {
            workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
            try {
                for (int i = 0; i < thread_count_ - 1; ++i)
                    workers_.emplace_back([this] { workerLoop(); });
            } catch (...) {
                // Out of threads: join the ones that did start, so a
                // failed start holds no threads (the next job retries
                // it), then fail the job.
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    stop_ = true;
                }
                cv_.notify_all();
                for (std::thread &worker : workers_)
                    worker.join();
                workers_.clear();
                std::lock_guard<std::mutex> lock(mutex_);
                stop_ = false;
                throw;
            }
        });
    }

    /// Claims and runs loop iterations until the cursor passes n: one
    /// atomic fetch_add per index, no lock.
    void
    runShare(const std::function<void(std::size_t)> &fn, std::size_t n)
    {
        for (std::size_t index =
                 next_.fetch_add(1, std::memory_order_relaxed);
             index < n;
             index = next_.fetch_add(1, std::memory_order_relaxed)) {
            try {
                fn(index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
    }

    /// True while the current job has unclaimed indices. Caller holds
    /// mutex_.
    bool jobOpen() const
    {
        return job_fn_ != nullptr &&
               next_.load(std::memory_order_relaxed) < job_n_;
    }

    void
    workerLoop()
    {
        for (;;) {
            const std::function<void(std::size_t)> *job = nullptr;
            std::size_t n = 0;
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] {
                    return stop_ || !tasks_.empty() || jobOpen();
                });
                if (jobOpen()) {
                    // Join under the lock, so the caller waits for this
                    // worker before it retires the job.
                    job = job_fn_;
                    n = job_n_;
                    ++joined_;
                } else if (!tasks_.empty()) {
                    task = std::move(tasks_.front());
                    tasks_.pop_front();
                } else if (stop_) {
                    return;
                }
            }
            if (job != nullptr) {
                runShare(*job, n);
                std::lock_guard<std::mutex> lock(mutex_);
                if (--joined_ == 0)
                    done_cv_.notify_all();
            } else if (task) {
                task();
            }
        }
    }

    int thread_count_ = 1;
    std::once_flag start_once_;
    std::vector<std::thread> workers_;
    std::mutex job_mutex_;  ///< serialises concurrent parallelFor calls
    std::mutex mutex_;
    std::deque<std::function<void()>> tasks_;  ///< submit() queue
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::size_t)> *job_fn_ = nullptr;
    std::size_t job_n_ = 0;
    /// The loop cursor: the next unclaimed index of the current job.
    std::atomic<std::size_t> next_{0};
    std::size_t joined_ = 0;  ///< workers inside the current job
    std::exception_ptr error_;
    bool stop_ = false;
};

}  // namespace temp

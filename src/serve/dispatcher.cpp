#include "serve/dispatcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "api/request_key.hpp"

namespace temp::serve {

namespace {

/// Request -> RequestKind; the variant alternatives and the enum are
/// declared in the same order in api/requests.hpp.
api::RequestKind
kindOf(const api::Request &request)
{
    return static_cast<api::RequestKind>(request.index());
}

}  // namespace

Dispatcher::Dispatcher(api::TempService &service,
                       DispatcherOptions options)
    : service_(service), options_(std::move(options))
{
    const int workers = std::max(1, options_.workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Dispatcher::~Dispatcher()
{
    stop();
}

api::Response
Dispatcher::refuse(const api::Request &request,
                   const std::string &tenant,
                   const std::string &error) const
{
    api::Response response;
    response.kind = kindOf(request);
    response.ok = false;
    response.shed = true;
    response.error = error;
    response.tenant = tenant;
    return response;
}

api::Response
Dispatcher::dispatch(const api::Request &request,
                     const std::string &tenant)
{
    // CacheStats snapshots are time-dependent: two of them are not
    // interchangeable, so they are admitted but never coalesced.
    const bool coalescable =
        !std::holds_alternative<api::CacheStatsRequest>(request);
    const std::string key = api::requestKey(request);

    std::shared_ptr<Entry> entry;
    bool rider = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.accepted;
        if (stopping_) {
            ++stats_.shed;
            return refuse(request, tenant,
                          "service is draining; request rejected");
        }
        if (coalescable) {
            const auto it = in_flight_.find(key);
            if (it != in_flight_.end()) {
                // Attach: no queue slot, no solve — the admission
                // bound deliberately does not apply to riders.
                entry = it->second;
                ++entry->attached;
                ++stats_.coalesced;
                rider = true;
            }
        }
        if (!entry) {
            if (queued_ >= options_.max_queue) {
                ++stats_.shed;
                return refuse(request, tenant,
                              "queue full (" +
                                  std::to_string(options_.max_queue) +
                                  " requests); request shed");
            }
            entry = std::make_shared<Entry>();
            entry->future = entry->promise.get_future().share();
            auto work = std::make_shared<Work>();
            work->request = request;
            work->key = key;
            work->entry = entry;
            work->admitted_at = std::chrono::steady_clock::now();
            if (coalescable)
                in_flight_.emplace(key, entry);
            const auto [queue, fresh] = queues_.try_emplace(tenant);
            if (fresh)
                tenant_order_.push_back(tenant);
            queue->second.push_back(std::move(work));
            ++queued_;
            work_ready_.notify_one();
        }
    }

    api::Response response = entry->future.get();
    if (entry->failure)
        throw std::runtime_error(*entry->failure);
    // `attached` is final once the future is ready: the entry left the
    // in-flight map (under the lock) before fulfilment, so no rider
    // can attach afterwards.
    response.coalesced_requests = entry->attached;
    response.coalesced = rider;
    response.tenant = tenant;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.completed;
    }
    return response;
}

std::shared_ptr<Dispatcher::Work>
Dispatcher::nextWorkLocked()
{
    // Round robin across tenants in first-seen order; the cursor
    // advances past the served tenant so the next dequeue starts at
    // its successor.
    for (std::size_t step = 0; step < tenant_order_.size(); ++step) {
        auto &queue = queues_[tenant_order_[rr_cursor_]];
        rr_cursor_ = (rr_cursor_ + 1) % tenant_order_.size();
        if (!queue.empty()) {
            std::shared_ptr<Work> work = std::move(queue.front());
            queue.pop_front();
            --queued_;
            return work;
        }
    }
    return nullptr;
}

void
Dispatcher::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_ready_.wait(lock,
                         [this] { return queued_ > 0 || shutdown_; });
        if (queued_ == 0) {
            if (shutdown_)
                return;
            continue;
        }
        const std::shared_ptr<Work> work = nextWorkLocked();
        ++executing_;

        // Deadline check at dequeue time: a request that already
        // outwaited serve.deadline_ms gets an explicit shed response
        // instead of a solve whose answer nobody is waiting for.
        bool expired = false;
        double waited_ms = 0.0;
        if (options_.deadline_ms > 0) {
            waited_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() -
                            work->admitted_at)
                            .count();
            expired = waited_ms >
                      static_cast<double>(options_.deadline_ms);
        }
        lock.unlock();

        api::Response response;
        // A throwing solve (a framework that cannot start its threads,
        // say) must not escape the worker thread, which would
        // terminate the process: it becomes this entry's outcome, and
        // every session waiting on it answers with an error.
        std::optional<std::string> failure;
        if (expired) {
            response.kind = kindOf(work->request);
            response.ok = false;
            response.shed = true;
            response.deadline_exceeded = true;
            response.error =
                "deadline exceeded: queued " +
                std::to_string(static_cast<long>(waited_ms)) +
                " ms > serve.deadline_ms=" +
                std::to_string(options_.deadline_ms) +
                "; request shed";
        } else {
            // Execute under the deadline's remainder: queue wait
            // already consumed part of serve.deadline_ms, so the solve
            // gets what is left as a wall cap plus an armed cancel
            // token. The solver stops at the next quantum boundary
            // after either trips and returns its best-so-far partial
            // flagged budget_exhausted — the worker is never held past
            // the deadline by more than one quantum.
            solver::SolveBudget budget;
            if (options_.deadline_ms > 0) {
                budget.max_wall_ms =
                    static_cast<double>(options_.deadline_ms) -
                    waited_ms;
                budget.cancel = common::CancelToken::make();
            }
            try {
                response = options_.executor
                               ? options_.executor(work->request, budget)
                               : service_.run(work->request, budget);
            } catch (const std::exception &e) {
                failure = e.what();
            } catch (...) {
                failure = "unknown exception";
            }
        }

        lock.lock();
        if (expired) {
            ++stats_.shed;
            ++stats_.deadline_expired;
        } else {
            ++stats_.executed;
            if (options_.deadline_ms > 0 && response.budget_exhausted)
                ++stats_.deadline_cancelled;
        }
        // Erase before fulfilment, under the lock: a key present in
        // the map is always safely attachable, and attached counts
        // freeze here.
        in_flight_.erase(work->key);
        --executing_;
        if (queued_ == 0 && executing_ == 0)
            idle_.notify_all();
        lock.unlock();
        // Fulfil outside the lock so woken waiters never pile up on
        // the dispatcher mutex.
        work->entry->failure = std::move(failure);
        work->entry->promise.set_value(std::move(response));
        lock.lock();
    }
}

void
Dispatcher::stop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    idle_.wait(lock,
               [this] { return queued_ == 0 && executing_ == 0; });
    shutdown_ = true;
    work_ready_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (std::thread &worker : workers)
        worker.join();
}

DispatchStats
Dispatcher::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

int
Dispatcher::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_ + executing_;
}

}  // namespace temp::serve

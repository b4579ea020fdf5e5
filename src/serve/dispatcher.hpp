/**
 * @file
 * The service-layer request dispatcher: in-flight coalescing,
 * admission control and per-tenant fair scheduling in front of
 * TempService.
 *
 * Three behaviors compose here, all keyed on the canonical request
 * content key (api/request_key.hpp):
 *
 *  - **Coalescing.** A request whose key matches one already admitted
 *    (queued or executing) attaches to that request's shared future
 *    instead of being solved again: N identical concurrent requests
 *    cost exactly one solve. Every rider's response is personalized
 *    (tenant, coalesced flag) but carries the same payload and the
 *    shared `coalesced_requests` count. CacheStats requests are never
 *    coalesced — their answer depends on *when* they run.
 *
 *  - **Admission control.** The total number of queued-not-yet-
 *    executing requests is bounded; beyond the bound dispatch()
 *    returns an explicit shed Response (ok=false, shed=true)
 *    immediately instead of letting latency grow without bound.
 *    Coalesced attachments bypass the bound — they consume no queue
 *    slot and no solve.
 *
 *  - **Fairness.** Queued work is held in per-tenant FIFOs drained
 *    round-robin, so a tenant flooding the queue cannot starve a
 *    tenant sending one request. The tenant id is the client-supplied
 *    envelope field ("" = anonymous, itself one tenant).
 *
 * Graceful drain: stop() refuses new work (shed with a drain message),
 * lets everything already admitted finish, then joins the workers —
 * the contract behind the server's SIGINT handling.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/requests.hpp"
#include "api/service.hpp"
#include "solver/solve_budget.hpp"

namespace temp::serve {

struct DispatcherOptions
{
    /// Worker threads executing solves (the service itself also
    /// parallelizes inside one solve via eval_threads).
    int workers = 2;
    /// Queued-request bound; admission control sheds beyond it.
    int max_queue = 64;
    /**
     * Per-request deadline (milliseconds; 0 = off). A request that
     * sat in the queue past its deadline is shed with an explicit
     * deadline_exceeded Response at dequeue time instead of running a
     * solve nobody is waiting for. A request dequeued *within* its
     * deadline executes under a SolveBudget whose wall cap is the
     * deadline's remainder (deadline_ms - queue wait) plus a cancel
     * token, so an in-flight solve that outlives the deadline stops at
     * the next quantum boundary and returns its best-so-far partial
     * (Response.budget_exhausted) instead of holding the worker.
     * Riders coalesced onto an expired request share its deadline
     * response (the solve they attached to never ran); riders on a
     * truncated solve share the flagged partial — serve.deadline_ms is
     * process-wide policy, so one truncation answers all attached
     * requests. Comes from the `serve.deadline_ms` config key.
     */
    int deadline_ms = 0;
    /**
     * Test seam: replaces TempService::run as the executor. Lets tests
     * gate execution (to hold requests in flight deterministically)
     * and count solves without a real service. Receives the SolveBudget
     * the dispatcher would hand the service (unlimited when
     * deadline_ms is off), so tests can drive mid-solve cancellation
     * through the budget's cancel token.
     */
    std::function<api::Response(const api::Request &,
                                const solver::SolveBudget &)>
        executor;
};

/// Monotonic dispatcher counters (one snapshot is internally
/// consistent: accepted == coalesced + executed + shed once idle).
struct DispatchStats
{
    long accepted = 0;   ///< dispatch() calls
    long coalesced = 0;  ///< answered by attaching to an in-flight key
    long executed = 0;   ///< solves actually run
    long shed = 0;       ///< rejected by admission control
    /// Shed because the request outwaited its deadline in the queue
    /// (a subset of `shed`: the accounting identity is unchanged).
    long deadline_expired = 0;
    /// Executed under a serve deadline and stopped at a budget
    /// boundary, returning a flagged best-so-far partial (a subset of
    /// `executed`: the accounting identity is unchanged).
    long deadline_cancelled = 0;
    long completed = 0;  ///< responses delivered (riders included)
};

class Dispatcher
{
  public:
    Dispatcher(api::TempService &service, DispatcherOptions options);
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /**
     * Admits, possibly coalesces, and waits for one request; blocks
     * the calling (per-connection) thread until the response is
     * ready. Always returns: a shed Response when admission control
     * rejects, a drain Response after stop().
     */
    api::Response dispatch(const api::Request &request,
                           const std::string &tenant);

    /**
     * Graceful drain: stop admitting, finish everything already
     * admitted (queued and executing, riders answered), then stop the
     * workers. Idempotent; called by the destructor.
     */
    void stop();

    DispatchStats stats() const;

    /// Queued + executing right now (0 once drained).
    int inFlight() const;

  private:
    /// One admitted solve; riders share it. Immutable after the entry
    /// leaves the in-flight map (which happens before the promise is
    /// fulfilled, under the dispatcher lock — so a key in the map is
    /// always attachable and attached counts are stable once ready).
    struct Entry
    {
        std::promise<api::Response> promise;
        std::shared_future<api::Response> future;
        long attached = 1;
        /// What the solve threw, if it did. Each waiter throws it as its
        /// own exception: a stored exception object would be shared by
        /// every rider's session thread.
        std::optional<std::string> failure;
    };

    struct Work
    {
        api::Request request;
        std::string key;
        std::shared_ptr<Entry> entry;
        /// Admission time; the deadline clock starts here.
        std::chrono::steady_clock::time_point admitted_at;
    };

    void workerLoop();
    std::shared_ptr<Work> nextWorkLocked();
    api::Response refuse(const api::Request &request,
                         const std::string &tenant,
                         const std::string &error) const;

    api::TempService &service_;
    DispatcherOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable idle_;
    /// stop() has begun: no new admissions (drain refusals).
    bool stopping_ = false;
    /// The drain is complete: workers may exit.
    bool shutdown_ = false;
    int queued_ = 0;
    int executing_ = 0;
    DispatchStats stats_;
    /// Canonical key -> admitted solve (insert at admit, erase just
    /// before fulfilment).
    std::unordered_map<std::string, std::shared_ptr<Entry>> in_flight_;
    /// Per-tenant FIFOs + round-robin order (tenants in first-seen
    /// order; empty queues are skipped, not removed).
    std::unordered_map<std::string, std::deque<std::shared_ptr<Work>>>
        queues_;
    std::vector<std::string> tenant_order_;
    std::size_t rr_cursor_ = 0;
    std::vector<std::thread> workers_;
};

}  // namespace temp::serve
